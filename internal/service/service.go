// Package service is the long-lived face of the scenario engine: a sweep
// registry plus a bounded executor that turns one shared scenario.Runner
// into something a daemon (cmd/twinserver) can safely expose to many
// concurrent clients.
//
// Where the one-shot CLIs (cmd/sweep, cmd/gridcitizen) pay full
// simulation cost per invocation and exit, a Service keeps the Runner —
// and its LRU memo of completed simulations — alive across requests:
//
//   - every submitted sweep gets a registry entry with a state machine
//     (pending → running → done/failed/canceled) and live progress;
//   - concurrent submissions of the same canonical Spec coalesce onto one
//     execution (singleflight) — N identical requests cost one sweep, and
//     a completed sweep keeps serving later identical submissions from
//     the registry until it is retired;
//   - executions are bounded by a semaphore so a burst of distinct sweeps
//     queues instead of oversubscribing the machine (each sweep already
//     parallelises internally across the Runner's worker pool);
//   - cancellation is reference-counted: a sweep whose every attached
//     client has disconnected before completion is cancelled (the context
//     threads through Runner.Run into the event loop of each in-flight
//     simulation), while detached submissions pin the sweep until an
//     explicit Cancel or service Shutdown.
//
// Determinism is inherited, not re-implemented: a sweep served through
// the service carries the same per-simulation core.Results digests
// (Result.SimDigest) a direct Runner.Run would produce.
package service

import (
	"context"
	"errors"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/greenhpc/archertwin/internal/api"
	"github.com/greenhpc/archertwin/internal/journal"
	"github.com/greenhpc/archertwin/internal/scenario"
)

// ErrShutdown is returned by Submit and RunShard once Shutdown has been
// called.
var ErrShutdown = errors.New("service: shut down")

// RunFunc executes one sweep in place of the Runner: the override that
// a fabric coordinator sets, and that tests set to control timing and
// failure modes.
type RunFunc func(ctx context.Context, spec scenario.Spec, progress func(done, total int)) (*scenario.SweepResults, error)

// Config parameterises a Service.
type Config struct {
	// Runner executes sweeps and owns the cross-sweep memo cache.
	// Required unless Run is set.
	Runner *scenario.Runner
	// Run overrides the executor (a fabric coordinator, tests). Nil means
	// the sweep loop (scenario.RunSweep) over Runner.Execute.
	Run RunFunc
	// MaxConcurrent bounds concurrently executing sweeps (default 2);
	// each sweep already fans out internally across the Runner's workers.
	MaxConcurrent int
	// MaxFinished bounds how many finished sweeps the registry retains
	// for status/result queries and dedup of repeat submissions (default
	// 64); the oldest-finished are retired first. Results they pinned
	// remain reachable through the Runner's memo until that evicts them.
	// In durable mode it bounds the journal too: compaction keeps the
	// records of exactly the sweeps the registry holds.
	MaxFinished int
	// Journal, when non-nil, makes the service durable: every registry
	// transition is journaled and committed before it is acknowledged,
	// and Recover replays the log on startup (see durable.go). Durable
	// mode requires Runner — the resume path re-executes missing
	// scenario indices through it — and is incompatible with a Run
	// override.
	Journal *journal.Log
	// MaxPending bounds sweeps queued for an executor slot: once the
	// executor is saturated and this many sweeps are pending, Submit
	// sheds load with an *OverloadError (HTTP 429 + Retry-After)
	// instead of queueing unboundedly. 0 means unbounded (the
	// pre-durability behaviour).
	MaxPending int
}

// Service is a long-lived sweep registry and executor. Create with New;
// a Service must not be copied.
type Service struct {
	cfg  Config
	sem  chan struct{}
	base context.Context
	stop context.CancelFunc

	mu           sync.Mutex
	sweeps       map[string]*Sweep // by ID
	byKey        map[string]*Sweep // latest sweep per canonical spec key
	finished     []string          // retirement order (IDs, oldest first)
	nextID       int
	shardsServed int  // completed POST /v1/shards executions
	draining     bool // Drain in progress: reject submissions, map cancellations to interrupted
}

// New creates a Service around cfg.
func New(cfg Config) (*Service, error) {
	if cfg.Runner == nil && cfg.Run == nil {
		return nil, errors.New("service: Config.Runner (or Run) is required")
	}
	if cfg.Journal != nil && (cfg.Runner == nil || cfg.Run != nil) {
		return nil, errors.New("service: durable mode (Config.Journal) requires Runner, without a Run override")
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.MaxFinished <= 0 {
		cfg.MaxFinished = 64
	}
	base, stop := context.WithCancel(context.Background())
	return &Service{
		cfg:    cfg,
		sem:    make(chan struct{}, cfg.MaxConcurrent),
		base:   base,
		stop:   stop,
		sweeps: make(map[string]*Sweep),
		byKey:  make(map[string]*Sweep),
	}, nil
}

// Shutdown cancels every in-flight sweep and rejects further
// submissions. It does not wait for executors to unwind; callers that
// need to can poll sweep states.
func (s *Service) Shutdown() { s.stop() }

// Submit registers a sweep for spec, or joins the caller onto an
// existing sweep with the same canonical spec that is pending, running
// or done (singleflight + registry dedup). The returned bool reports
// whether an existing sweep was joined.
//
// When attach is true the submission is tied to ctx: if every attached
// context is cancelled (clients disconnected) before the sweep finishes
// and no detached submission has pinned it, the sweep is cancelled. When
// attach is false the sweep is pinned and runs to completion unless
// explicitly cancelled or the service shuts down.
func (s *Service) Submit(ctx context.Context, spec scenario.Spec, attach bool) (*Sweep, bool, error) {
	if err := s.base.Err(); err != nil {
		return nil, false, ErrShutdown
	}
	// Partition up front so a bad spec fails the submission, not the
	// executor; the partition is the sweep's one expansion.
	part, err := spec.Partition()
	if err != nil {
		return nil, false, err
	}
	spec = part.Spec()
	key := api.SpecKey(spec)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, false, ErrShutdown
	}
	if sw := s.byKey[key]; sw != nil {
		if st := sw.state(); st != api.StateFailed && st != api.StateCanceled {
			s.mu.Unlock()
			sw.join(ctx, attach)
			return sw, true, nil
		}
	}
	// Load shedding: a new sweep that would queue beyond MaxPending is
	// refused with a Retry-After hint instead of growing the backlog.
	// Dedup joins above are exempt — they cost nothing to serve.
	if s.cfg.MaxPending > 0 && len(s.sem) == cap(s.sem) {
		pending := 0
		for _, sw := range s.sweeps {
			if sw.state() == api.StatePending {
				pending++
			}
		}
		if pending >= s.cfg.MaxPending {
			s.mu.Unlock()
			return nil, false, &OverloadError{
				RetryAfter: shedRetryAfter(pending, cap(s.sem)),
				Reason:     "executor saturated",
			}
		}
	}
	s.nextID++
	runCtx, cancel := context.WithCancel(s.base)
	sw := &Sweep{
		ID:        "sweep-" + strconv.Itoa(s.nextID),
		Key:       key,
		Spec:      spec,
		scenarios: len(part.Keys),
		submitted: time.Now(),
		st:        api.StatePending,
		cancel:    cancel,
		done:      make(chan struct{}),
	}
	s.sweeps[sw.ID] = sw
	s.byKey[key] = sw
	s.mu.Unlock()

	// Durable mode: the submission is journaled and committed before it
	// is acknowledged. If the journal refuses (crash injection, disk
	// stall, full disk) the registration is rolled back — an
	// unacknowledged sweep must not survive a restart.
	if s.cfg.Journal != nil {
		if jerr := s.journalSubmit(ctx, sw); jerr != nil {
			s.mu.Lock()
			delete(s.sweeps, sw.ID)
			if s.byKey[key] == sw {
				delete(s.byKey, key)
			}
			s.mu.Unlock()
			sw.finish(nil, jerr)
			close(sw.done)
			sw.cancel()
			return nil, false, jerr
		}
	}

	sw.join(ctx, attach)
	go s.execute(runCtx, sw, part)
	return sw, false, nil
}

// Get returns the sweep with the given ID.
func (s *Service) Get(id string) (*Sweep, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	return sw, ok
}

// List returns every registered sweep's status, newest submission first.
func (s *Service) List() []api.SweepStatus {
	s.mu.Lock()
	sweeps := make([]*Sweep, 0, len(s.sweeps))
	for _, sw := range s.sweeps {
		sweeps = append(sweeps, sw)
	}
	s.mu.Unlock()
	out := make([]api.SweepStatus, len(sweeps))
	for i, sw := range sweeps {
		out[i] = sw.Status()
	}
	// Newest submission first; ID breaks ties between same-instant
	// submissions for a stable order.
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Submitted.Equal(out[j].Submitted) {
			return out[i].Submitted.After(out[j].Submitted)
		}
		return out[i].ID > out[j].ID
	})
	return out
}

// Cancel cancels the sweep with the given ID, regardless of pins or
// attached clients. It reports whether the sweep exists.
func (s *Service) Cancel(id string) bool {
	sw, ok := s.Get(id)
	if !ok {
		return false
	}
	sw.cancel()
	return true
}

// Stats returns the operational snapshot.
func (s *Service) Stats() api.ServiceStats {
	st := api.ServiceStats{Sweeps: make(map[api.SweepState]int), MaxConcurrent: cap(s.sem), Executing: len(s.sem)}
	if s.cfg.Runner != nil {
		st.Cache = s.cfg.Runner.CacheStats()
	}
	s.mu.Lock()
	for _, sw := range s.sweeps {
		st.Sweeps[sw.state()]++
	}
	st.ShardsServed = s.shardsServed
	s.mu.Unlock()
	return st
}

// RunShard executes one shard of a sweep on behalf of a fabric
// coordinator: the spec's expanded scenarios at the requested indices,
// under the same executor semaphore that bounds whole sweeps. Results
// come back in request order, each carrying its global expansion index
// and simulation digest; repeated shards are cheap because the Runner's
// memo already holds their simulations.
func (s *Service) RunShard(ctx context.Context, req api.ShardRequest) (*api.ShardResponse, error) {
	if err := s.base.Err(); err != nil {
		return nil, ErrShutdown
	}
	if s.cfg.Runner == nil {
		return nil, &api.Error{Code: api.ErrUnavailable, Message: "server has no runner (coordinator mode?)"}
	}
	// Validate the request up front so malformed shards answer
	// bad_request (the coordinator's fault) rather than shard_failed
	// (the sweep's fault).
	part, err := req.Spec.Partition()
	if err == nil {
		err = part.CheckSelection(req.Scenarios)
	}
	if err != nil {
		return nil, &api.Error{Code: api.ErrBadRequest, Message: err.Error()}
	}
	// Shards queue behind the same slot bound as whole sweeps so a
	// coordinator burst cannot oversubscribe a worker.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	results, sims, err := s.cfg.Runner.RunSelected(ctx, part, req.Scenarios, nil)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.shardsServed++
	s.mu.Unlock()
	return &api.ShardResponse{Shard: req.Shard, Results: results, Simulations: sims}, nil
}

// execute runs one sweep, partitioned as part, under the concurrency
// bound: through the sweep loop (scenario.RunSweep) over the Runner's
// executor, seeded with any results Recover found journaled, unless
// Config.Run overrides it. A terminal sweep releases its run context
// before Done closes: cancelling detaches it from s.base, which
// otherwise keeps every sweep ever served.
func (s *Service) execute(ctx context.Context, sw *Sweep, part scenario.Partition) {
	defer close(sw.done)
	defer sw.cancel()
	var res *scenario.SweepResults
	var err error
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
		sw.setRunning()
		if s.cfg.Run != nil {
			res, err = s.cfg.Run(ctx, sw.Spec, sw.setProgress)
		} else {
			res, err = scenario.RunSweep(ctx, part, sw.recovered, s.cfg.Runner.Execute, sw.setProgress, s.land(ctx, sw))
		}
	case <-ctx.Done():
	}
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	sw.finish(res, err)
	// In durable mode an eviction from the registry compacts the journal,
	// so the journal keeps the records of exactly the registered sweeps.
	if s.journalTerminal(sw) && s.retire(sw) && s.cfg.Journal != nil {
		s.compact()
	}
}

// retire records a finished sweep, evicts the oldest finished sweeps
// beyond the registry bound and reports whether it evicted any. A
// retired sweep disappears from status queries and no longer serves
// dedup joins; its simulations stay reachable through the Runner's memo
// until the LRU evicts them.
func (s *Service) retire(sw *Sweep) (evicted bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, sw.ID)
	for len(s.finished) > s.cfg.MaxFinished {
		id := s.finished[0]
		s.finished = s.finished[1:]
		old, ok := s.sweeps[id]
		if !ok {
			continue
		}
		delete(s.sweeps, id)
		if s.byKey[old.Key] == old {
			delete(s.byKey, old.Key)
		}
		evicted = true
	}
	return evicted
}

// Sweep is one registered sweep. The exported fields are immutable after
// creation; everything mutable is behind Status and Results.
type Sweep struct {
	ID   string
	Key  string
	Spec scenario.Spec

	scenarios int
	cancel    context.CancelFunc
	done      chan struct{}
	recovered map[int]scenario.Result // journaled results seeded by Recover, keyed by expansion index

	mu        sync.Mutex
	st        api.SweepState
	submitted time.Time
	started   time.Time
	finished  time.Time
	simsTotal int
	simsDone  int
	res       *scenario.SweepResults
	err       error
	waiters   int
	pinned    bool
}

// Done is closed when the sweep reaches a terminal state.
func (sw *Sweep) Done() <-chan struct{} { return sw.done }

// Status snapshots the sweep.
func (sw *Sweep) Status() api.SweepStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	st := api.SweepStatus{
		ID:        sw.ID,
		Name:      sw.Spec.Name,
		SpecKey:   sw.Key,
		State:     sw.st,
		Submitted: sw.submitted,
		Progress:  api.SweepProgress{Scenarios: sw.scenarios, Simulations: sw.simsTotal, Done: sw.simsDone},
	}
	if !sw.started.IsZero() {
		t := sw.started
		st.Started = &t
	}
	if !sw.finished.IsZero() {
		t := sw.finished
		st.Finished = &t
	}
	if sw.err != nil {
		st.Error = sw.err.Error()
	}
	return st
}

// Results returns the completed sweep's results, or the terminal error.
// Before the sweep finishes both returns are nil.
func (sw *Sweep) Results() (*scenario.SweepResults, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.res, sw.err
}

func (sw *Sweep) state() api.SweepState {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.st
}

// join ties a submission to the sweep: attached contexts are
// reference-counted for disconnect cancellation, detached submissions
// pin the sweep alive.
func (sw *Sweep) join(ctx context.Context, attach bool) {
	sw.mu.Lock()
	if !attach || ctx == nil || ctx.Done() == nil {
		sw.pinned = true
		sw.mu.Unlock()
		return
	}
	sw.waiters++
	sw.mu.Unlock()
	go func() {
		select {
		case <-ctx.Done():
			sw.detach()
		case <-sw.done:
		}
	}()
}

// detach drops one attached client; the last one out cancels an
// unpinned, unfinished sweep.
func (sw *Sweep) detach() {
	sw.mu.Lock()
	sw.waiters--
	abandon := sw.waiters == 0 && !sw.pinned && sw.st != api.StateDone &&
		sw.st != api.StateFailed && sw.st != api.StateCanceled
	sw.mu.Unlock()
	if abandon {
		sw.cancel()
	}
}

func (sw *Sweep) setRunning() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.st = api.StateRunning
	sw.started = time.Now()
}

func (sw *Sweep) setProgress(done, total int) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.simsDone, sw.simsTotal = done, total
}

func (sw *Sweep) finish(res *scenario.SweepResults, err error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.finished = time.Now()
	switch {
	case err == nil:
		sw.st, sw.res = api.StateDone, res
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		sw.st, sw.err = api.StateCanceled, err
	default:
		sw.st, sw.err = api.StateFailed, err
	}
}
