package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"

	"github.com/greenhpc/archertwin/internal/api"
	"github.com/greenhpc/archertwin/internal/scenario"
)

// maxSpecBytes bounds a submitted spec body; real specs are a few
// hundred bytes. Shard requests add an index slice, still far below
// this.
const maxSpecBytes = 1 << 20

// NewHandler serves the twinserver v1 HTTP API for svc. The wire
// contract — endpoints, envelopes, error codes — is specified in
// docs/api.md; the shapes live in internal/api.
func NewHandler(svc *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			api.WriteMethodNotAllowed(w, "GET")
			return
		}
		api.WriteJSON(w, http.StatusOK, api.Health{OK: true})
	})
	mux.HandleFunc("/statz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			api.WriteMethodNotAllowed(w, "GET")
			return
		}
		api.WriteJSON(w, http.StatusOK, svc.Stats())
	})
	mux.HandleFunc(api.PathPrefix+"/sweeps", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			handleSubmit(svc, w, r)
		case http.MethodGet:
			handleList(svc, w, r)
		default:
			api.WriteMethodNotAllowed(w, "GET, POST")
		}
	})
	mux.HandleFunc(api.PathPrefix+"/sweeps/", func(w http.ResponseWriter, r *http.Request) {
		handleSweep(svc, w, r)
	})
	mux.HandleFunc(api.PathPrefix+"/shards", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			api.WriteMethodNotAllowed(w, "POST")
			return
		}
		handleShard(svc, w, r)
	})
	return mux
}

func handleSubmit(svc *Service, w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, api.ErrBadRequest, "reading body: "+err.Error())
		return
	}
	spec, err := scenario.ParseSpec(body)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, api.ErrBadRequest, err.Error())
		return
	}
	wait := isTrue(r.URL.Query().Get("wait"))

	// A waiting client is attached: its disconnect releases its
	// reference on the sweep. A fire-and-poll submission pins the sweep
	// so it survives the immediate end of this request.
	sw, joined, err := svc.Submit(r.Context(), spec, wait)
	if err != nil {
		var oe *OverloadError
		if errors.As(err, &oe) {
			api.WriteOverloaded(w, oe.RetryAfter, err.Error())
			return
		}
		code, ec := http.StatusBadRequest, api.ErrBadRequest
		if errors.Is(err, ErrShutdown) {
			code, ec = http.StatusServiceUnavailable, api.ErrUnavailable
		}
		api.WriteError(w, code, ec, err.Error())
		return
	}
	if !wait {
		code := http.StatusAccepted
		if joined {
			code = http.StatusOK
		}
		api.WriteJSON(w, code, sw.Status())
		return
	}
	select {
	case <-sw.Done():
		writeTerminal(w, sw)
	case <-r.Context().Done():
		// Client gone; the attach reference it held has been released.
	}
}

func handleList(svc *Service, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := api.DefaultListLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			api.WriteError(w, http.StatusBadRequest, api.ErrBadRequest,
				"limit must be a positive integer, got "+strconv.Quote(v))
			return
		}
		limit = n
	}
	var states map[api.SweepState]bool
	if v := q.Get("state"); v != "" {
		states = make(map[api.SweepState]bool)
		for _, part := range strings.Split(v, ",") {
			st := api.SweepState(strings.TrimSpace(part))
			if !api.ValidState(st) {
				api.WriteError(w, http.StatusBadRequest, api.ErrBadRequest,
					"unknown state "+strconv.Quote(string(st))+
						"; valid states: pending, running, done, failed, canceled")
				return
			}
			states[st] = true
		}
	}
	all := svc.List()
	page := api.SweepList{Sweeps: []api.SweepStatus{}}
	for _, st := range all {
		if states != nil && !states[st.State] {
			continue
		}
		page.Total++
		if len(page.Sweeps) < limit {
			page.Sweeps = append(page.Sweeps, st)
		}
	}
	api.WriteJSON(w, http.StatusOK, page)
}

func handleSweep(svc *Service, w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, api.PathPrefix+"/sweeps/")
	id, sub, _ := strings.Cut(rest, "/")
	if sub != "" && sub != "results" {
		api.WriteError(w, http.StatusNotFound, api.ErrNotFound, "no such resource "+r.URL.Path)
		return
	}
	sw, ok := svc.Get(id)
	if !ok {
		api.WriteError(w, http.StatusNotFound, api.ErrNotFound, "no such sweep "+id)
		return
	}
	switch {
	case r.Method == http.MethodDelete && sub == "":
		svc.Cancel(id)
		api.WriteJSON(w, http.StatusOK, sw.Status())
	case r.Method == http.MethodGet && sub == "":
		api.WriteJSON(w, http.StatusOK, sw.Status())
	case r.Method == http.MethodGet && sub == "results":
		st := sw.Status()
		if !st.State.Terminal() {
			api.WriteErrorStatus(w, http.StatusConflict, api.ErrSweepNotDone,
				"sweep "+id+" is "+string(st.State), st)
			return
		}
		writeTerminal(w, sw)
	case sub == "results":
		api.WriteMethodNotAllowed(w, "GET")
	default:
		api.WriteMethodNotAllowed(w, "GET, DELETE")
	}
}

func handleShard(svc *Service, w http.ResponseWriter, r *http.Request) {
	var req api.ShardRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes)).Decode(&req); err != nil {
		api.WriteError(w, http.StatusBadRequest, api.ErrBadRequest, "decoding shard request: "+err.Error())
		return
	}
	resp, err := svc.RunShard(r.Context(), req)
	if err != nil {
		writeShardError(w, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// writeShardError maps a shard failure onto the envelope the
// coordinator's retry policy keys on: unavailable (503) means "try
// another replica", shard_failed (500) means "this sweep is broken —
// re-dispatching cannot help", bad_request (400) means the request
// itself was malformed.
func writeShardError(w http.ResponseWriter, err error) {
	var apiErr *api.Error
	switch {
	case errors.Is(err, ErrShutdown):
		api.WriteError(w, http.StatusServiceUnavailable, api.ErrUnavailable, err.Error())
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The coordinator hung up or its shard deadline passed mid-run;
		// answer 503 for any proxy still listening.
		api.WriteError(w, http.StatusServiceUnavailable, api.ErrUnavailable, "shard cancelled: "+err.Error())
	case errors.As(err, &apiErr):
		code := http.StatusInternalServerError
		if apiErr.Code == api.ErrUnavailable {
			code = http.StatusServiceUnavailable
		} else if apiErr.Code == api.ErrBadRequest {
			code = http.StatusBadRequest
		}
		api.WriteJSON(w, code, api.ErrorEnvelope{Error: apiErr})
	default:
		api.WriteError(w, http.StatusInternalServerError, api.ErrShardFailed, err.Error())
	}
}

// writeTerminal renders a finished sweep: the results payload when it
// completed, an error envelope embedding the terminal status otherwise.
func writeTerminal(w http.ResponseWriter, sw *Sweep) {
	res, err := sw.Results()
	st := sw.Status()
	switch {
	case err != nil:
		if st.State == api.StateCanceled {
			api.WriteErrorStatus(w, http.StatusConflict, api.ErrSweepCanceled,
				"sweep "+sw.ID+" was cancelled", st)
			return
		}
		api.WriteErrorStatus(w, http.StatusInternalServerError, api.ErrSweepFailed,
			"sweep "+sw.ID+" failed: "+st.Error, st)
	case res != nil:
		payload := api.ResultsPayload{
			ID:          sw.ID,
			Spec:        res.Spec,
			Workers:     res.Workers,
			Simulations: res.Simulations,
			Results:     res.Results,
			DeltaTable:  res.Table(),
			RegimeTable: res.RegimeTable(),
		}
		if res.CarbonSwept() {
			payload.CarbonTable = res.CarbonTable()
		}
		api.WriteJSON(w, http.StatusOK, &payload)
	default:
		// Terminal without results or error cannot happen; be explicit
		// rather than serving an empty 200.
		api.WriteError(w, http.StatusInternalServerError, api.ErrInternal, "sweep finished without results")
	}
}

func isTrue(v string) bool {
	switch strings.ToLower(v) {
	case "1", "true", "yes":
		return true
	}
	return false
}
