package service

// Durable mode. With Config.Journal set, the service journals every
// registry transition before acknowledging it — a submission is not
// accepted until its SweepSubmitted record is committed, a scenario's
// result is journaled (with its simulation digest) as each simulation
// lands, and terminal states land as SweepTerminal records. Recover
// replays the log on startup: finished sweeps re-register with their
// results reassembled from the journal, unfinished ones resume through
// the same sweep loop (scenario.RunSweep) with the journaled results
// seeded in, so only their missing scenario indices re-execute — a
// restarted twinserver picks up mid-sweep instead of recomputing, and
// the recovered results are byte-identical (digests and tables) to an
// uninterrupted run.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/greenhpc/archertwin/internal/api"
	"github.com/greenhpc/archertwin/internal/journal"
	"github.com/greenhpc/archertwin/internal/scenario"
)

// OverloadError is Submit shedding load: the executor queue is past
// MaxPending or the journal disk stalled past its commit deadline.
// The HTTP layer maps it to 429 with a Retry-After header; api.Client
// honors that with jittered backoff.
type OverloadError struct {
	RetryAfter time.Duration
	Reason     string
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("service: overloaded (%s); retry in %s", e.Reason, e.RetryAfter)
}

// shedRetryAfter estimates when a shed client should come back: one
// executor drain interval per queued batch, capped so the hint stays
// actionable.
func shedRetryAfter(pending, slots int) time.Duration {
	if slots < 1 {
		slots = 1
	}
	d := time.Duration(1+pending/slots) * time.Second
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// journalSubmit commits a sweep's registration record; called before
// the submission is acknowledged. A stalled journal disk surfaces as an
// *OverloadError so the client backs off instead of queueing behind a
// dead disk.
func (s *Service) journalSubmit(ctx context.Context, sw *Sweep) error {
	err := s.cfg.Journal.Append(&journal.SweepSubmitted{
		ID: sw.ID, Key: sw.Key, Spec: sw.Spec,
		Scenarios: sw.scenarios, Submitted: sw.submitted,
	})
	if err == nil {
		err = s.cfg.Journal.Commit(ctx)
	}
	switch {
	case err == nil:
		return nil
	case errors.Is(err, journal.ErrStalled):
		return &OverloadError{RetryAfter: 5 * time.Second, Reason: "journal disk stalled"}
	default:
		return fmt.Errorf("service: journaling submission: %w", err)
	}
}

// land is the LandFunc of a sweep's run: nil without a journal, and in
// durable mode one that journals and commits each simulation's scenario
// results as they land — the resume granularity after the next crash.
func (s *Service) land(ctx context.Context, sw *Sweep) scenario.LandFunc {
	if s.cfg.Journal == nil {
		return nil
	}
	// Append keeps no record and landings never overlap: one serves all.
	rec := &journal.ScenarioDone{Sweep: sw.ID}
	return func(indices []int, slots []scenario.Result) error {
		var err error
		for j := 0; j < len(indices) && err == nil; j++ {
			rec.Index, rec.Result = indices[j], slots[indices[j]]
			err = s.cfg.Journal.Append(rec)
		}
		if err == nil {
			err = s.cfg.Journal.Commit(ctx)
		}
		if err != nil {
			return fmt.Errorf("service: journaling scenario results: %w", err)
		}
		return nil
	}
}

// journalTerminal records a sweep reaching a terminal state and reports
// whether it may retire: always without a journal, and with one only
// once a final terminal record is committed. During a drain,
// cancellation is journaled as interrupted, so recovery resumes the
// sweep rather than honouring a cancellation. An interrupted sweep, or
// one whose record failed to commit, stays registered and so keeps its
// records for the next recovery, which re-finishes it deterministically.
func (s *Service) journalTerminal(sw *Sweep) bool {
	if s.cfg.Journal == nil {
		return true
	}
	st := sw.Status()
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	var state string
	switch st.State {
	case api.StateDone:
		state = journal.TerminalDone
	case api.StateFailed:
		state = journal.TerminalFailed
	case api.StateCanceled:
		if draining {
			state = journal.TerminalInterrupted
		} else {
			state = journal.TerminalCanceled
		}
	default:
		return false
	}
	rec := &journal.SweepTerminal{Sweep: sw.ID, State: state, Error: st.Error}
	if st.Finished != nil {
		rec.Finished = *st.Finished
	}
	if res, _ := sw.Results(); res != nil {
		rec.Workers = res.Workers
	}
	if err := s.cfg.Journal.Append(rec); err != nil {
		return false
	}
	if err := s.cfg.Journal.Commit(context.Background()); err != nil {
		return false
	}
	return state != journal.TerminalInterrupted
}

// compact drops the journal records of sweeps the registry no longer
// holds, segment by segment. Lock order: Compact runs keep with the
// journal locked and keep takes s.mu, so s.mu is never held across a
// journal call.
func (s *Service) compact() {
	_, _ = s.cfg.Journal.Compact(func(sweepID string) bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		_, ok := s.sweeps[sweepID]
		return ok
	})
}

// RecoveryStats summarises what Recover found in the journal.
type RecoveryStats struct {
	// Sweeps is how many journaled sweeps were re-registered.
	Sweeps int
	// Resumed is how many were unfinished (or interrupted) and resumed
	// execution.
	Resumed int
	// Finished is how many were already terminal and re-registered
	// with their journaled outcome.
	Finished int
	// ReusedResults counts journaled scenario results reused verbatim
	// instead of re-simulated.
	ReusedResults int
}

// Recover replays the journal and rebuilds the sweep registry: finished
// sweeps re-register with their results assembled from journaled
// records, unfinished ones resume executing their missing scenario
// indices. Call once, after New and before serving traffic; the service
// must be otherwise idle.
func (s *Service) Recover(ctx context.Context) (RecoveryStats, error) {
	var stats RecoveryStats
	if s.cfg.Journal == nil {
		return stats, errors.New("service: Recover requires durable mode (Config.Journal)")
	}
	type sweepState struct {
		sub     *journal.SweepSubmitted
		results map[int]scenario.Result
		term    *journal.SweepTerminal
	}
	states := map[string]*sweepState{}
	var order []string
	err := s.cfg.Journal.Replay(func(rec journal.Record) error {
		id := rec.SweepID()
		st, ok := states[id]
		if !ok {
			st = &sweepState{results: map[int]scenario.Result{}}
			states[id] = st
			order = append(order, id)
		}
		switch r := rec.(type) {
		case *journal.SweepSubmitted:
			st.sub = r
		case *journal.ScenarioDone:
			st.results[r.Index] = r.Result
		case *journal.SweepTerminal:
			// Latest terminal wins: a done overwritten by an interrupted
			// (a drain racing completion) resumes and re-finishes
			// identically.
			st.term = r
		}
		return nil
	})
	if err != nil {
		return stats, err
	}

	var resume []func()
	for _, id := range order {
		st := states[id]
		if st.sub == nil {
			// Orphan records of a compacted-away sweep sharing a segment
			// with a live one; nothing to restore.
			continue
		}
		stats.Sweeps++
		var seq int
		s.mu.Lock()
		if _, err := fmt.Sscanf(id, "sweep-%d", &seq); err == nil && seq > s.nextID {
			s.nextID = seq
		}
		s.mu.Unlock()
		// finished registers a sweep that ended with its outcome.
		finished := func(sw *Sweep) {
			close(sw.done)
			s.publish(sw)
			s.retire(sw)
			stats.Finished++
		}

		final := st.term != nil && st.term.State != journal.TerminalInterrupted
		if final && st.term.State != journal.TerminalDone {
			sw := s.newRecoveredSweep(st.sub, nil)
			sw.finished = st.term.Finished
			msg := st.term.Error
			if msg == "" {
				msg = "sweep " + st.term.State
			}
			sw.st, sw.err = api.StateFailed, errors.New(msg)
			if st.term.State == journal.TerminalCanceled {
				sw.st = api.StateCanceled
			}
			finished(sw)
			continue
		}

		// The sweep's one expansion: a done sweep assembles its journaled
		// results over it, an unfinished one resumes on it. A journaled
		// spec that no longer partitions fails as its run would.
		part, err := st.sub.Spec.Partition()
		if err != nil {
			sw := s.newRecoveredSweep(st.sub, nil)
			sw.finish(nil, err)
			finished(sw)
			continue
		}
		if final {
			if res, err := assembleRecovered(part, st.sub, st.results, st.term.Workers); err == nil {
				sw := s.newRecoveredSweep(st.sub, nil)
				sw.finished, sw.st, sw.res = st.term.Finished, api.StateDone, res
				sw.simsTotal, sw.simsDone = res.Simulations, res.Simulations
				finished(sw)
				stats.ReusedResults += len(st.results)
				continue
			}
			// A done terminal without its full result set (lost to a torn
			// tail): fall through and resume — determinism guarantees the
			// re-run finishes identically.
		}

		// Unfinished (no terminal, or interrupted): resume with the
		// journaled results seeded in; only missing indices re-execute.
		sw := s.newRecoveredSweep(st.sub, st.results)
		runCtx, cancel := context.WithCancel(s.base)
		sw.cancel = cancel
		s.publish(sw)
		stats.Resumed++
		stats.ReusedResults += len(st.results)
		resume = append(resume, func() { go s.execute(runCtx, sw, part) })
	}
	// Compact once every journaled sweep is registered (keep consults the
	// registry), and before any resumed sweep can finish and compact.
	s.compact()
	for _, start := range resume {
		start()
	}
	return stats, nil
}

// assembleRecovered rebuilds a completed sweep's results from its
// journaled records over its partition (workers comes from the terminal
// record, so the recovered payload matches the original byte for byte);
// errors if any scenario index is missing.
func assembleRecovered(part scenario.Partition, sub *journal.SweepSubmitted, results map[int]scenario.Result, workers int) (*scenario.SweepResults, error) {
	merged := make([]scenario.Result, sub.Scenarios)
	for i := range merged {
		res, ok := results[i]
		if !ok {
			return nil, fmt.Errorf("service: recovered sweep %s is missing scenario %d", sub.ID, i)
		}
		merged[i] = res
	}
	return part.Assemble(merged, workers)
}

// newRecoveredSweep re-creates a journaled sweep. Recovered sweeps are
// pinned: no client holds a reference, and an interrupted sweep must
// run to completion regardless. The sweep has no run context, so its
// cancel does nothing: one already terminal never runs, and the caller
// gives one it resumes a context. The caller finishes populating the
// sweep and then publishes it.
func (s *Service) newRecoveredSweep(sub *journal.SweepSubmitted, recovered map[int]scenario.Result) *Sweep {
	return &Sweep{
		ID:        sub.ID,
		Key:       sub.Key,
		Spec:      sub.Spec,
		scenarios: sub.Scenarios,
		submitted: sub.Submitted,
		st:        api.StatePending,
		cancel:    func() {},
		done:      make(chan struct{}),
		pinned:    true,
		recovered: recovered,
	}
}

// publish registers a (fully populated) recovered sweep.
func (s *Service) publish(sw *Sweep) {
	s.mu.Lock()
	s.sweeps[sw.ID] = sw
	s.byKey[sw.Key] = sw
	s.mu.Unlock()
}

// Drain stops accepting submissions and gives in-flight sweeps until
// ctx expires to finish naturally. Stragglers are then cancelled and —
// in durable mode — journaled as interrupted, so the next Recover
// resumes them. Returns how many sweeps were interrupted; the service
// is shut down when Drain returns.
func (s *Service) Drain(ctx context.Context) int {
	s.mu.Lock()
	s.draining = true
	var active []*Sweep
	for _, sw := range s.sweeps {
		if !sw.state().Terminal() {
			active = append(active, sw)
		}
	}
	s.mu.Unlock()

	for _, sw := range active {
		select {
		case <-sw.Done():
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
	}
	interrupted := 0
	for _, sw := range active {
		if !sw.state().Terminal() {
			interrupted++
		}
	}
	s.stop()
	// Bounded grace for the executors to unwind and journal their
	// interrupted records.
	grace := time.After(2 * time.Second)
	for _, sw := range active {
		select {
		case <-sw.Done():
		case <-grace:
		}
	}
	return interrupted
}
