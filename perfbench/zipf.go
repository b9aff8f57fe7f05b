package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"eunomia"
	"eunomia/internal/workload"
)

// paper-zipf: the paper's contention regime on the emulated backend. Every
// virtual core draws from one YCSB Zipfian (theta 0.99) over the figure
// harness's default key space, all of it preloaded, in a write-heavy mix,
// under the deterministic lockstep scheduler on the paper's 20 cores.
// README.md gives the source of each figure.
const (
	zipfKeys    = 100_000 // internal/harness default Keys
	zipfTheta   = 0.99
	zipfThreads = 20
	// zipfRoundOps ops per core make one round: one RunVirtual call, and
	// one slice of the wall-clock figures. Each core's stream has
	// zipfSections sections; round r runs section r mod zipfSections, and
	// rounds repeat until the timed phase ends. The section count is odd,
	// so a traced run's alternating traced and untraced rounds cover every
	// section both ways over two passes.
	zipfRoundOps = 2500
	zipfSections = 5
	// zipfVirtualRounds are the rounds virtual_mops and the virtual-time
	// latencies are taken from: one pass over every section. They always
	// run, so those figures are bit-identical for a seed.
	zipfVirtualRounds = zipfSections
	zipfMaxRounds     = 512
)

// zipfMix is the harness's default YCSB-A 50/50 read/update split
// (workload.DefaultMix): updates half puts and half deletes, reads gets
// plus 2% scans.
var zipfMix = workload.Mix{GetPct: 48, PutPct: 25, DeletePct: 25, ScanPct: 2, ScanLen: scanMax}

func zipfOptions(o eunomia.Observer) eunomia.Options {
	return eunomia.Options{ArenaWords: dbArena, Observability: eunomia.Observability{Observer: o}}
}

// coreClocks follows each virtual core's clock through the device's
// transaction events (every event's TS is the core's clock when it was
// emitted). The time between the last events of two consecutive ops on a
// core is the second op's latency in virtual time. Observer callbacks do
// not advance virtual time, so following the clocks changes no figure.
// Events arrive only from the one core the lockstep scheduler is running,
// and every hand-off between cores is a channel operation, so the clocks
// need no lock.
type coreClocks struct {
	on  atomic.Bool
	now [zipfThreads]uint64
}

func (c *coreClocks) Event(e eunomia.Event) {
	if c.on.Load() && e.Proc >= 0 && int(e.Proc) < len(c.now) {
		c.now[e.Proc] = max(c.now[e.Proc], e.TS)
	}
}

func runZipf(r *run) error {
	m := newZipfModel(r.cfg.seed, zipfKeys, zipfThreads, zipfSections*zipfRoundOps, zipfTheta, zipfMix)
	pairs := preloadPairs(&m.inputs)

	clocks := &coreClocks{}
	var db *eunomia.DB
	var times []float64
	for i := 0; i < setups; i++ {
		if db != nil {
			if err := db.Close(); err != nil {
				return fmt.Errorf("close: %w", err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		_, end := r.tr.begin("DB.Open", r.root)
		var err error
		db, err = eunomia.Open(zipfOptions(clocks))
		end()
		if err != nil {
			return fmt.Errorf("open: %w", err)
		}
		_, end = r.tr.begin("preload", r.root)
		err = load([]eunomia.Handle{db.NewHandle()}, pairs)
		end()
		if err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(times))
	r.say("setup: %d keys preloaded, open+preload %.3f s each", len(pairs), times)

	before := db.Metrics()
	runtime.GC()
	spanID, end := r.tr.begin("timed", r.root)
	sl := &slices{ops: make([]uint64, zipfMaxRounds), secs: make([]float64, zipfMaxRounds)}
	// vlat holds the virtual-time latencies (virtual ns) of the first
	// zipfVirtualRounds rounds.
	vlat := newSlices(zipfVirtualRounds)
	var nsPerCycle float64
	var vcycles, vops uint64
	var vsecs float64
	var wasted uint64
	var recs []*recorder
	if r.tr != nil {
		for t := 0; t < zipfThreads; t++ {
			recs = append(recs, r.tr.recorder(t, spanID))
		}
	}
	deadline := time.Now().Add(time.Duration(r.cfg.seconds) * time.Second)
	rounds := 0
	for ; rounds < zipfMaxRounds && (rounds < zipfVirtualRounds || time.Now().Before(deadline)); rounds++ {
		i := rounds
		traced := recs != nil && i%2 == 1
		tallies := make([]tally, zipfThreads)
		var next atomic.Int32
		t0 := time.Now()
		clocks.now = [zipfThreads]uint64{}
		clocks.on.Store(true)
		// Only one core runs at a time under the lockstep scheduler, and
		// every hand-off is a channel operation, so the cores share vlat
		// without a lock.
		vr := db.RunVirtual(zipfThreads, func(th *eunomia.Thread) {
			w := int(next.Add(1) - 1)
			var buf []kv
			base := (i % zipfSections) * zipfRoundOps
			for j, o := range m.streams[w][base : base+zipfRoundOps] {
				pos := base + j
				v0, s0 := clocks.now[w], time.Now()
				a, err := do(th, o, &buf)
				v1, s1 := clocks.now[w], time.Now()
				if i < zipfVirtualRounds {
					vlat.lat[i][o.kind].add(int64(v1 - v0))
				}
				if traced {
					recs[w].record(threadSpan[o.kind], pos, int64(s0.Sub(r.tr.base)), int64(s1.Sub(r.tr.base)))
				}
				msg := ""
				if err == nil {
					msg = checkOp(&m.inputs, m, w, o, a)
				}
				tallies[w].result(o.kind, err, msg)
			}
		})
		clocks.on.Store(false)
		sl.secs[i] = time.Since(t0).Seconds()
		sl.ops[i] = zipfThreads * zipfRoundOps
		for _, t := range tallies {
			r.tally.add(t)
		}
		if i < zipfVirtualRounds {
			vops += zipfThreads * zipfRoundOps
			vsecs += vr.Seconds
			nsPerCycle = vr.Seconds / float64(vr.Cycles) * 1e9
		}
		vcycles += vr.Cycles * zipfThreads
		wasted += vr.Stats.WastedCycles
	}
	end()
	after := db.Metrics()
	sl.ops, sl.secs = sl.ops[:rounds], sl.secs[:rounds]
	ops := r.tally.attempted
	r.set("ops_per_s", sl.rate())
	r.say("timed phase: %d ops in %d rounds, median round rate %.0f ops/s (wall clock)", ops, rounds, sl.rate())
	for _, k := range []opKind{opGet, opPut, opScan} {
		p50, n := vlat.pooled(k, 0.50)
		p99, _ := vlat.pooled(k, 0.99)
		r.set(kindNames[k]+"_p50_us", p50*nsPerCycle)
		// The scan tail is printed but not reported: see README.md.
		if k != opScan {
			r.set(kindNames[k]+"_p99_us", p99*nsPerCycle)
		}
		r.say("virtual latency %-6s p50 %.3f us, p99 %.3f us, %d samples", kindNames[k], p50*nsPerCycle, p99*nsPerCycle, n)
	}
	r.set("virtual_mops", float64(vops)/vsecs/1e6)
	r.say("virtual: first %d rounds %.6f virtual Mops/s on %d cores; %d rounds in all",
		zipfVirtualRounds, float64(vops)/vsecs/1e6, zipfThreads, rounds)

	m.settle(rounds, zipfRoundOps)
	got := dumpStore(db)
	r.checkContents("after the timed phase", got, m.n, m.contents)
	r.set("arena_live_mb", float64(after.Memory.LiveBytes)/(1<<20))
	if r.tr != nil {
		r.layersFromMetrics(before, after, ops, len(got))
		r.set("vclock.cycles_per_op", float64(vcycles)/float64(ops))
		r.set("htm.wasted_cycle_share", float64(wasted)/float64(vcycles))
		r.set("trace.overhead_pct", overheadPct(sl))
		r.set("cluster.redirects", 0)
		r.set("cluster.retries", 0)
		r.set("cluster.shed_ops", 0)
	}

	_, end = r.tr.begin("DB.Close", r.root)
	err := db.Close()
	end()
	if err != nil {
		return fmt.Errorf("close: %w", err)
	}
	// recover_s: RunVirtual refuses a durable DB, so the verified final
	// contents go to the durable restart host-uniform also runs, with a log
	// tail from the first stream, checked against those exact contents.
	final := make(exactModel, m.n)
	for i := range final {
		final[i] = absent
	}
	for _, p := range got {
		if idx, ok := idxOf(p.k, m.n); ok {
			final[idx] = p.v
		}
	}
	err = r.durableRestart(got, m.n, final.contents, m.streams[:1], func(w int, o op, a answer) string {
		msg := checkOp(&m.inputs, final, w, o, a)
		final.apply(o)
		return msg
	})
	if err != nil {
		return err
	}

	if r.tr != nil {
		return r.routeReplay(&m.inputs, m, func(int, op) {})
	}
	return nil
}
