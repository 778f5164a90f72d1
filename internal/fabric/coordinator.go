// Package fabric is the distributed sweep layer: a Coordinator that
// shards one scenario sweep across many twinserver worker replicas and
// merges their per-shard results into a single SweepResults that is
// byte-identical — per-scenario simulation digests and rendered tables —
// to a single-process Runner.Run of the same spec, at any shard count.
//
// The design follows the scheduler-fabric idiom (a coordinator that owns
// placement and retry, workers that own execution):
//
//   - the expanded grid partitions by each scenario's canonical
//     simulation key (scenario.Partition), and keys map to workers by
//     consistent hashing — scenarios sharing a simulation or a
//     checkpoint/fork family stay on one replica, and repeat traffic for
//     a configuration lands on the replica whose memo LRU is already
//     warm;
//   - shards dispatch in parallel over the typed v1 API client
//     (api.Client.RunShard against POST /v1/shards);
//   - a worker that times out, drops the connection or answers
//     unavailable is removed from the membership and its shard is
//     re-hashed over the survivors with bounded exponential backoff —
//     re-running a shard is safe because shard execution is
//     deterministic and memoized;
//   - a deterministic failure (a scenario error a worker reports) fails
//     the sweep immediately: re-dispatching it elsewhere would fail
//     identically.
//
// Membership is push-based: workers announce themselves with
// POST /v1/workers (see Handler), and joins double as heartbeats against
// the WorkerTTL expiry.
package fabric

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/greenhpc/archertwin/internal/api"
	"github.com/greenhpc/archertwin/internal/scenario"
)

// Config parameterises a Coordinator.
type Config struct {
	// ShardTimeout bounds one shard dispatch (default 15m). A worker
	// that blows the deadline is treated as lost and its shard
	// re-hashed.
	ShardTimeout time.Duration
	// MaxRounds bounds dispatch rounds per sweep: the initial round plus
	// re-shard rounds after worker loss (default 4).
	MaxRounds int
	// Backoff is the base delay before a re-shard round, doubling per
	// round (default 250ms).
	Backoff time.Duration
	// Heartbeat is the interval workers are expected to re-join at —
	// the basis for the WorkerTTL default (default 10s, matching
	// cmd/twinserver's -heartbeat).
	Heartbeat time.Duration
	// WorkerTTL expires workers whose last join (heartbeat) is older
	// than this. 0 defaults to 3× Heartbeat — three missed heartbeats
	// mean the worker is gone, not slow; negative disables expiry
	// entirely (dispatch failures still remove workers).
	WorkerTTL time.Duration
	// NewClient builds the API client for a worker base URL; nil means
	// api.NewClient. Tests substitute it to inject faults.
	NewClient func(baseURL string) *api.Client
	// Logf, when non-nil, receives membership events (TTL evictions);
	// typically log.Printf.
	Logf func(format string, args ...any)

	// Now reports the current time; nil means time.Now (tests).
	Now func() time.Time
}

// Coordinator shards sweeps across registered worker replicas. Its Run
// method has the service.RunFunc shape, so a coordinator-mode
// twinserver plugs it straight into the sweep registry — singleflight
// dedup, lifecycle states and cancellation all behave exactly as in
// single-process mode.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	members map[string]*member
}

type member struct {
	url      string
	client   *api.Client
	lastSeen time.Time
	shards   int
}

// New creates a Coordinator.
func New(cfg Config) *Coordinator {
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 15 * time.Minute
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 4
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 250 * time.Millisecond
	}
	if cfg.NewClient == nil {
		cfg.NewClient = api.NewClient
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 10 * time.Second
	}
	switch {
	case cfg.WorkerTTL == 0:
		cfg.WorkerTTL = 3 * cfg.Heartbeat
	case cfg.WorkerTTL < 0:
		cfg.WorkerTTL = 0 // never expire
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Coordinator{cfg: cfg, members: make(map[string]*member)}
}

// Join registers (or heartbeats) a worker by its advertised base URL.
func (c *Coordinator) Join(url string) {
	if url == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.members[url]
	if !ok {
		m = &member{url: url, client: c.cfg.NewClient(url)}
		c.members[url] = m
	}
	m.lastSeen = c.cfg.Now()
}

// Remove drops a worker from the membership.
func (c *Coordinator) Remove(url string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.members, url)
}

// Workers returns the live membership, sorted by URL.
func (c *Coordinator) Workers() api.WorkerList {
	live := c.live()
	wl := api.WorkerList{Workers: make([]api.WorkerInfo, 0, len(live))}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range live {
		wl.Workers = append(wl.Workers, api.WorkerInfo{URL: m.url, LastSeen: m.lastSeen, Shards: m.shards})
	}
	return wl
}

// live snapshots the non-expired members, sorted by URL for
// deterministic shard ordinals, pruning any that outlived WorkerTTL.
func (c *Coordinator) live() []*member {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	out := make([]*member, 0, len(c.members))
	for url, m := range c.members {
		if c.cfg.WorkerTTL > 0 && now.Sub(m.lastSeen) > c.cfg.WorkerTTL {
			delete(c.members, url)
			if c.cfg.Logf != nil {
				c.cfg.Logf("fabric: worker %s evicted: no heartbeat for %v (TTL %v)",
					url, now.Sub(m.lastSeen).Round(time.Second), c.cfg.WorkerTTL)
			}
			continue
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].url < out[j].url })
	return out
}

// Run executes one sweep across the registered workers and merges the
// shards into a SweepResults byte-identical to a single-process run
// (see the package comment for the contract). It matches
// service.RunFunc: the sweep runs through the one sweep loop
// (scenario.RunSweep) with the coordinator's ring dispatch as its
// executor, so progress (when non-nil) receives (resolved, total)
// unique-simulation counts as shards land, and SweepResults.Workers is
// the number of workers that contributed a shard.
func (c *Coordinator) Run(ctx context.Context, spec scenario.Spec, progress func(done, total int)) (*scenario.SweepResults, error) {
	part, err := spec.Partition()
	if err != nil {
		return nil, err
	}
	return scenario.RunSweep(ctx, part, nil, c.execute, progress, nil)
}

// execute is the coordinator's scenario.Executor. Each round it
// consistent-hashes the unresolved simulation groups onto the live ring
// and sends every worker its share as one shard, in parallel; each
// answered shard lands whole. A worker lost mid-round is removed and its
// share re-hashed over the survivors in the next round, after a
// doubling backoff; a deterministic failure fails the sweep at once. It
// returns how many workers contributed.
func (c *Coordinator) execute(ctx context.Context, part scenario.Partition, indices []int, slots []scenario.Result, land scenario.LandFunc) (int, error) {
	spec := part.Spec()
	sweepKey := api.SpecKey(spec)
	// unresolved maps each affinity key still to dispatch to its requested
	// indices; group atomicity is free because shards are unions of whole
	// groups.
	unresolved := map[string][]int{}
	for _, i := range indices {
		unresolved[part.Keys[i]] = append(unresolved[part.Keys[i]], i)
	}

	contributed := map[string]bool{}
	for round := 0; len(unresolved) > 0; round++ {
		if round > 0 {
			if round >= c.cfg.MaxRounds {
				return 0, fmt.Errorf("fabric: %d scenario groups unresolved after %d dispatch rounds",
					len(unresolved), round)
			}
			select {
			case <-ctx.Done():
				return 0, fmt.Errorf("fabric: sweep cancelled: %w", ctx.Err())
			case <-time.After(c.cfg.Backoff << (round - 1)):
			}
		}
		members := c.live()
		if len(members) == 0 {
			return 0, errors.New("fabric: no live workers registered")
		}

		// Consistent-hash each unresolved group onto the current ring.
		urls := make([]string, len(members))
		for i, m := range members {
			urls[i] = m.url
		}
		rg := newRing(urls)
		assign := map[string][]int{}
		for _, key := range part.GroupOrder {
			if idxs, ok := unresolved[key]; ok {
				u := rg.lookup(key)
				assign[u] = append(assign[u], idxs...)
			}
		}

		type shard struct {
			m       *member
			indices []int
		}
		var shards []shard
		for _, m := range members {
			idxs := assign[m.url]
			if len(idxs) == 0 {
				continue
			}
			sort.Ints(idxs)
			shards = append(shards, shard{m: m, indices: idxs})
		}

		// Dispatch every shard of this round in parallel; mu serializes
		// landing and the round's bookkeeping.
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			permErrs []error
			landErr  error
		)
		for si, sh := range shards {
			si, sh := si, sh
			wg.Add(1)
			go func() {
				defer wg.Done()
				shardCtx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
				defer cancel()
				resp, err := sh.m.client.RunShard(shardCtx, api.ShardRequest{
					SweepKey:  sweepKey,
					Shard:     si,
					Of:        len(shards),
					Spec:      spec,
					Scenarios: sh.indices,
				})
				mu.Lock()
				defer mu.Unlock()
				switch {
				case ctx.Err() != nil || landErr != nil:
					// The sweep itself is cancelled, or landing failed; the
					// checks after the round own it.
					return
				case err != nil && api.IsTransient(err):
					// Worker lost (connection refused/reset, shard timeout,
					// 502/503/504): drop it and let the next round re-hash its
					// slice over the survivors. A heartbeating worker that was
					// merely slow re-registers itself.
					c.Remove(sh.m.url)
					return
				case err != nil:
					// The worker answered deterministically (scenario failure,
					// validation rejection): retrying elsewhere cannot help.
					permErrs = append(permErrs, fmt.Errorf("fabric: worker %s shard %d/%d: %w",
						sh.m.url, si, len(shards), err))
					return
				case len(resp.Results) != len(sh.indices):
					// A malformed answer is a worker fault, not a sweep fault.
					c.Remove(sh.m.url)
					return
				}
				for j, idx := range sh.indices {
					if resp.Results[j].Scenario.Index != idx {
						c.Remove(sh.m.url)
						return
					}
				}
				for j, idx := range sh.indices {
					slots[idx] = resp.Results[j]
				}
				if landErr = land(sh.indices, slots); landErr != nil {
					return
				}
				for _, idx := range sh.indices {
					delete(unresolved, part.Keys[idx])
				}
				c.mu.Lock()
				sh.m.shards++
				c.mu.Unlock()
				contributed[sh.m.url] = true
			}()
		}
		wg.Wait()
		if landErr != nil {
			return 0, landErr
		}
		if len(permErrs) > 0 {
			return 0, errors.Join(permErrs...)
		}
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("fabric: sweep cancelled: %w", err)
		}
	}
	return len(contributed), nil
}
