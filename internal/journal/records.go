package journal

import (
	"fmt"
	"time"

	"github.com/greenhpc/archertwin/internal/jsonwire"
	"github.com/greenhpc/archertwin/internal/scenario"
)

// The journal's record vocabulary mirrors the service's registry
// transitions — one record kind per durable fact about a sweep. Payloads
// are JSON: ScenarioDone's through the v1 results codec (jsonwire), the
// others' through encoding/json, both writing the same bytes. float64
// values survive the round trip exactly, which is what makes recovery
// byte-identical, and TestFrameCodecStable pins a frame of each codec so
// the on-disk format cannot drift silently.

// recordType is the one-byte frame tag identifying a record's kind.
type recordType byte

const (
	typeSweepSubmitted recordType = 1
	typeScenarioDone   recordType = 2
	typeSweepTerminal  recordType = 3
)

// Record is one journal entry. The three concrete kinds are
// SweepSubmitted, ScenarioDone and SweepTerminal.
type Record interface {
	// SweepID names the sweep this record belongs to — the compaction
	// unit: a sweep's records are dropped all together or not at all.
	SweepID() string

	recordType() recordType
}

// SweepSubmitted records a sweep's registration: written (and committed)
// before the submission is acknowledged, so an acknowledged sweep is
// guaranteed to survive a crash.
type SweepSubmitted struct {
	ID string `json:"id"`
	// Key is the canonical spec key (api.SpecKey) — the dedup identity.
	Key string `json:"key"`
	// Spec is the canonical sweep spec; replay re-expands it, so scenario
	// identity is index-based exactly as in the shard protocol.
	Spec scenario.Spec `json:"spec"`
	// Scenarios is the expanded scenario count at submission, a
	// consistency check against replay-time re-expansion.
	Scenarios int       `json:"scenarios"`
	Submitted time.Time `json:"submitted"`
}

// SweepID implements Record.
func (r *SweepSubmitted) SweepID() string        { return r.ID }
func (r *SweepSubmitted) recordType() recordType { return typeSweepSubmitted }

// ScenarioDone records one expanded scenario's completed result,
// including its simulation digest — the unit of recovered work: a
// replayed ScenarioDone is reused verbatim instead of re-simulated.
type ScenarioDone struct {
	Sweep string `json:"sweep_id"`
	// Index is the scenario's position in the spec's canonical expansion.
	Index  int             `json:"index"`
	Result scenario.Result `json:"result"`
}

// SweepID implements Record.
func (r *ScenarioDone) SweepID() string        { return r.Sweep }
func (r *ScenarioDone) recordType() recordType { return typeScenarioDone }

// doneFields is ScenarioDone's JSON, as its tags declare it.
var doneFields = []jsonwire.Field[ScenarioDone]{
	jsonwire.String("sweep_id", func(r *ScenarioDone) *string { return &r.Sweep }),
	jsonwire.Int("index", func(r *ScenarioDone) *int { return &r.Index }),
	jsonwire.Value("result",
		func(dst []byte, r *ScenarioDone) ([]byte, error) { return r.Result.AppendJSON(dst) },
		func(rd *jsonwire.Reader, r *ScenarioDone) error { return r.Result.DecodeJSON(rd) }),
}

// AppendJSON appends the record's JSON payload to dst.
func (r *ScenarioDone) AppendJSON(b []byte) ([]byte, error) {
	return jsonwire.AppendObject(b, doneFields, r)
}

// DecodeJSON decodes the next value of rd into the record.
func (r *ScenarioDone) DecodeJSON(rd *jsonwire.Reader) error {
	return jsonwire.DecodeObject(rd, doneFields, r)
}

// Terminal states a SweepTerminal record can carry. Interrupted is the
// one state with no in-memory counterpart: a drain deadline passed (or a
// crash was observed) with the sweep unfinished — recovery resumes it.
const (
	TerminalDone        = "done"
	TerminalFailed      = "failed"
	TerminalCanceled    = "canceled"
	TerminalInterrupted = "interrupted"
)

// SweepTerminal records a sweep reaching a terminal state. A sweep whose
// newest terminal record is TerminalInterrupted (or that has none) is
// resumed by recovery; done/failed/canceled are final.
type SweepTerminal struct {
	Sweep string `json:"sweep_id"`
	State string `json:"state"`
	// Error carries the failure cause for failed/canceled terminals.
	Error string `json:"error,omitempty"`
	// Workers is the worker count the finished sweep reported.
	Workers  int       `json:"workers,omitempty"`
	Finished time.Time `json:"finished"`
}

// SweepID implements Record.
func (r *SweepTerminal) SweepID() string        { return r.Sweep }
func (r *SweepTerminal) recordType() recordType { return typeSweepTerminal }

// decodeRecord parses a frame body back into its typed record.
func decodeRecord(body []byte) (Record, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("journal: empty record body")
	}
	var rec Record
	switch recordType(body[0]) {
	case typeSweepSubmitted:
		rec = &SweepSubmitted{}
	case typeScenarioDone:
		rec = &ScenarioDone{}
	case typeSweepTerminal:
		rec = &SweepTerminal{}
	default:
		return nil, fmt.Errorf("journal: unknown record type %d", body[0])
	}
	if err := jsonwire.Unmarshal(body[1:], rec); err != nil {
		return nil, fmt.Errorf("journal: decoding %T: %w", rec, err)
	}
	return rec, nil
}
