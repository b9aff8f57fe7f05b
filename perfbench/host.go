package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"eunomia"
)

// host-uniform: a 4-shard hash Cluster on the host backend, driven by
// closed-loop workers, each waiting for its answer before it sends its next
// operation. README.md gives the source of each figure.
const (
	hostKeys    = 100_000 // key indices; a quarter static, a quarter never written
	hostWorkers = 2
	hostShards  = 4
	// hostStreamLen ops are generated per worker; a worker cycles through them.
	hostStreamLen = 1 << 20
	// virtualOps is how many ops of each worker's stream the virtual-time
	// replay runs on the emulated backend.
	virtualOps = 10000
	// tailOps is how many writes of each stream go to the durable store
	// after its snapshot, so recovery replays a log tail.
	tailOps = 5000
)

// hostMix is YCSB-B's 95/5 read/update split: reads are gets plus 2%
// scans, updates half puts and half deletes.
var hostMix = mix{get: 930, put: 25, del: 25, scan: 20}

const (
	// setups is how many times a run opens and preloads its store;
	// setup_s is their median, and the last one is measured.
	setups = 5
	// reopens is how many times a run reopens its durable store;
	// recover_s is the fastest.
	reopens = 11
	// timedSlices splits the timed phase; figures are medians over slices.
	timedSlices = 20
	// snapshotBytes is each durable shard's auto-snapshot threshold.
	snapshotBytes = 1 << 20
	shardArena    = 1 << 21 // words per host shard (16 MiB)
	dbArena       = 1 << 22 // words per single emulated or host DB (32 MiB)
)

func clusterOptions(dir string) eunomia.ClusterOptions {
	o := eunomia.ClusterOptions{
		Shards: hostShards,
		Shard:  eunomia.Options{Backend: eunomia.Host, ArenaWords: shardArena},
	}
	if dir != "" {
		// FlushInterval 0: leader-based group commit, every write
		// acknowledged only after its fsync.
		o.Shard.Durability = eunomia.Durability{Dir: dir, SnapshotBytes: snapshotBytes}
	}
	return o
}

// setupHost opens and preloads the store `setups` times, keeping the last.
func (r *run) setupHost(pairs []kv) (*eunomia.Cluster, error) {
	var times []float64
	var c *eunomia.Cluster
	for i := 0; i < setups; i++ {
		if c != nil {
			if err := c.Close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		_, end := r.tr.begin("Cluster.Open", r.root)
		var err error
		c, err = eunomia.OpenCluster(clusterOptions(""))
		end()
		if err != nil {
			return nil, fmt.Errorf("open cluster: %w", err)
		}
		_, end = r.tr.begin("preload", r.root)
		err = withHandles(c, 1, func(hs []eunomia.Handle) error { return load(hs, pairs) })
		end()
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(times))
	r.say("setup: %d keys preloaded, open+preload %.3f s each", len(pairs), times)
	return c, nil
}

func withHandles(st eunomia.Store, n int, f func([]eunomia.Handle) error) error {
	hs := make([]eunomia.Handle, n)
	for i := range hs {
		hs[i] = st.NewHandle()
	}
	err := f(hs)
	for _, h := range hs {
		h.Close()
	}
	return err
}

func runHost(r *run) error {
	m := newHostModel(r.cfg.seed, hostKeys, hostWorkers, hostStreamLen, hostMix)
	c, err := r.setupHost(preloadPairs(&m.inputs))
	if err != nil {
		return err
	}
	before := c.ClusterMetrics()
	runtime.GC()
	sl := r.timedHost(c, m)
	after := c.ClusterMetrics()
	ops := r.tally.attempted
	r.wallFigures(sl, ops)

	// Whole contents, outside timing: exactly the model's.
	r.checkContents("after the timed phase", dumpStore(c), m.n, m.contents)
	r.set("arena_live_mb", float64(after.Agg.Memory.LiveBytes)/(1<<20))
	if r.tr != nil {
		r.layersFromMetrics(before.Agg, after.Agg, ops, len(m.pairs()))
		r.clusterLayers(before, after)
		r.set("trace.overhead_pct", overheadPct(sl))
	}
	_, end := r.tr.begin("Cluster.Close", r.root)
	err = c.Close()
	end()
	if err != nil {
		return fmt.Errorf("close: %w", err)
	}

	err = r.durableRestart(m.pairs(), m.n, m.contents, m.streams, func(w int, o op, a answer) string {
		msg := checkOp(&m.inputs, m, w, o, a)
		m.apply(w, o)
		return msg
	})
	if err != nil {
		return err
	}
	m.reset()
	if err := r.virtualReplay(m); err != nil {
		return err
	}
	if r.tr != nil {
		m.reset()
		return r.routeReplay(&m.inputs, m, func(w int, o op) { m.apply(w, o) })
	}
	return nil
}

// timedHost runs the closed loop for the configured seconds. Each worker
// owns a Session and walks its own pre-generated stream. A slice lasts
// from its nominal start until its last operation returned. In a traced run
// odd slices record spans and even slices do not, so the gap between the
// two is the tracing overhead.
func (r *run) timedHost(c *eunomia.Cluster, m *hostModel) *slices {
	spanID, end := r.tr.begin("timed", r.root)
	defer end()
	sliceDur := time.Duration(r.cfg.seconds) * time.Second / timedSlices
	per := make([]*slices, hostWorkers)
	tallies := make([]tally, hostWorkers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < hostWorkers; w++ {
		h := c.NewHandle()
		var rec *recorder
		if r.tr != nil {
			rec = r.tr.recorder(w, spanID)
		}
		per[w] = newSlices(timedSlices)
		wg.Add(1)
		go func(w int, h eunomia.Handle, rec *recorder) {
			defer wg.Done()
			defer h.Close()
			s, t, stream := per[w], &tallies[w], m.streams[w]
			pos := 0
			var buf []kv
			for i := 0; i < timedSlices; i++ {
				begin := start.Add(time.Duration(i) * sliceDur)
				deadline := begin.Add(sliceDur)
				traced := rec != nil && i%2 == 1
				for {
					t0 := time.Now()
					if !t0.Before(deadline) {
						break
					}
					o := stream[pos]
					a, err := do(h, o, &buf)
					t1 := time.Now()
					s.lat[i][o.kind].add(int64(t1.Sub(t0)))
					if traced {
						rec.record(sessionSpan[o.kind], pos, int64(t0.Sub(r.tr.base)), int64(t1.Sub(r.tr.base)))
					}
					msg := ""
					if err == nil {
						msg = checkOp(&m.inputs, m, w, o, a)
						m.apply(w, o)
					}
					t.result(o.kind, err, msg)
					s.ops[i]++
					s.secs[i] = t1.Sub(begin).Seconds()
					if pos++; pos == len(stream) {
						pos = 0
					}
				}
			}
		}(w, h, rec)
	}
	wg.Wait()
	all := newSlices(timedSlices)
	for w := range per {
		all.merge(per[w])
		r.tally.add(tallies[w])
	}
	return all
}

var (
	sessionSpan = [numKinds]string{"Session.Get", "Session.Put", "Session.Delete", "Session.Scan"}
	threadSpan  = [numKinds]string{"Thread.Get", "Thread.Put", "Thread.Delete", "Thread.Scan"}
)

// wallFigures sets the throughput and latency figures from the slices.
func (r *run) wallFigures(sl *slices, ops uint64) {
	r.set("ops_per_s", sl.rate())
	for _, k := range []opKind{opGet, opPut, opScan} {
		p50, n := sl.latency(k, 0.50)
		p99, _ := sl.latency(k, 0.99)
		r.set(kindNames[k]+"_p50_us", p50)
		// The scan tail is printed but not reported: see README.md.
		if k != opScan {
			r.set(kindNames[k]+"_p99_us", p99)
		}
		r.say("latency %-6s median over slices of p50 %.2f us, of p99 %.2f us; %d samples", kindNames[k], p50, p99, n)
	}
	var rates []string
	for i, n := range sl.ops {
		rates = append(rates, fmt.Sprintf("%.0f", float64(n)/sl.secs[i]))
	}
	r.say("timed phase: %d ops, median slice rate %.0f ops/s, slice rates %s", ops, sl.rate(), strings.Join(rates, " "))
}

// overheadPct compares the untraced (even) and traced (odd) slices.
func overheadPct(sl *slices) float64 {
	var plain, traced []float64
	for i, n := range sl.ops {
		x := float64(n) / sl.secs[i]
		if i%2 == 0 {
			plain = append(plain, x)
		} else {
			traced = append(traced, x)
		}
	}
	p, t := median(plain), median(traced)
	return (p - t) / p * 100
}

func dumpStore(st eunomia.Store) []kv {
	h := st.NewHandle()
	defer h.Close()
	return dump(h)
}

func (r *run) checkContents(when string, got []kv, n int, want func(uint32) []uint64) {
	for _, s := range checkContents(n, got, want) {
		r.bad = append(r.bad, when+": "+s)
	}
}

// recoverStore measures recover_s: the time from a closed store to one
// serving the same contents again, as the fastest of `reopens` reopens.
// Close only flushes the log, so every reopen loads the same snapshot and
// replays the same log; the shared machine's interference only adds time
// to one, so the fastest is the steadiest estimate of that work.
// check runs on the first reopened store, the one that follows the run.
func (r *run) recoverStore(reopen func() (eunomia.Store, error), check func(eunomia.Store)) error {
	var times []float64
	for i := 0; i < reopens; i++ {
		runtime.GC()
		t0 := time.Now()
		_, end := r.tr.begin("reopen", r.root)
		st, err := reopen()
		end()
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == 0 {
			check(st)
		}
		if err := st.Close(); err != nil {
			return fmt.Errorf("close after reopen: %w", err)
		}
	}
	fastest := times[0]
	for _, t := range times {
		fastest = min(fastest, t)
	}
	r.set("recover_s", fastest)
	r.say("recover: %.3f s each", times)
	return nil
}
