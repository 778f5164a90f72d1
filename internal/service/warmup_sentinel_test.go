package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"github.com/greenhpc/archertwin/internal/api"
	"github.com/greenhpc/archertwin/internal/scenario"
)

// Regression for the warmup_days=-1 sentinel: the service canonicalises
// the spec once and the Runner defaults it again; the sentinel must
// survive both passes so the served sweep measures the same window (and
// produces the same digest) as a direct run of the same JSON spec.
func TestServerWarmupSentinelDigestIdentity(t *testing.T) {
	_, srv := newTestServer(t, Config{Runner: &scenario.Runner{Workers: 1}})
	spec := scenario.Spec{Nodes: 32, Days: 2, WarmupDays: -1}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(srv.URL+"/v1/sweeps?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var p api.ResultsPayload
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	direct, err := (&scenario.Runner{Workers: 1}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Results[0].SimDigest != direct.Results[0].SimDigest {
		t.Fatalf("served digest %s != direct %s", p.Results[0].SimDigest, direct.Results[0].SimDigest)
	}
}
