package main

import (
	"fmt"
	"sync/atomic"

	"eunomia"
)

// abortReasons are the htm abort causes the per-layer metrics break out.
var abortReasons = []string{"conflict-false", "conflict-meta", "conflict-true", "capacity", "fallback-lock"}

// layersFromMetrics sets the core, htm and simmem per-layer metrics from
// the store's counters before and after the timed phase.
func (r *run) layersFromMetrics(b, a eunomia.Metrics, ops uint64, liveKeys int) {
	perOp := func(x, y uint64) float64 { return float64(y-x) / float64(ops) }
	perKop := func(x, y uint64) float64 { return 1000 * perOp(x, y) }
	r.set("core.root_retries_per_kop", perKop(b.Tree.RootRetries, a.Tree.RootRetries))
	r.set("core.mark_rejects_per_kop", perKop(b.Tree.MarkRejects, a.Tree.MarkRejects))
	r.set("core.splits_per_kop", perKop(b.Tree.Splits, a.Tree.Splits))
	r.set("core.compactions_per_kop", perKop(b.Tree.Compactions, a.Tree.Compactions))
	r.set("core.maint_rounds_per_kop", perKop(b.Tree.MaintRounds, a.Tree.MaintRounds))
	r.set("htm.tx_loads_per_op", perOp(b.Tx.TxLoads, a.Tx.TxLoads))
	r.set("htm.tx_stores_per_op", perOp(b.Tx.TxStores, a.Tx.TxStores))
	r.set("htm.attempts_per_op", perOp(b.Tx.Attempts, a.Tx.Attempts))
	r.set("htm.commit_ratio", float64(a.Tx.Commits-b.Tx.Commits)/float64(a.Tx.Attempts-b.Tx.Attempts))
	r.set("htm.fallbacks_per_kop", perKop(b.Tx.Fallbacks, a.Tx.Fallbacks))
	for _, reason := range abortReasons {
		r.set("htm.aborts_per_kop."+reason, perKop(b.Tx.AbortsByReason[reason], a.Tx.AbortsByReason[reason]))
	}
	keys := float64(liveKeys)
	r.set("simmem.live_bytes_per_key", float64(a.Memory.LiveBytes)/keys)
	r.set("simmem.peak_bytes_per_key", float64(a.Memory.PeakBytes)/keys)
	r.set("simmem.ccm_bytes_per_key", float64(a.Memory.CCMBytes)/keys)
}

// clusterLayers sets the routing layer's counters over the timed phase.
func (r *run) clusterLayers(b, a eunomia.ClusterMetrics) {
	r.set("cluster.redirects", float64(a.Topology.Redirects-b.Topology.Redirects))
	r.set("cluster.retries", float64(a.Fault.Retries-b.Fault.Retries))
	r.set("cluster.shed_ops", float64(a.Fault.ShedOps-b.Fault.ShedOps))
}

// mergedFlushQuantiles merges the shards' flush latency summaries into the
// cluster's p50 and p99 (ns). Each shard reports only its own p50, p99 and
// max, so its distribution is taken as the piecewise-linear CDF through
// (0, 0), (p50, 0.5), (p99, 0.99) and (max, 1); the shards are mixed in
// proportion to their flush counts and the mixture's quantiles solved by
// bisection. Unlike the aggregate's max of per-shard percentiles, this
// weights a quiet shard by how little it flushed.
func mergedFlushQuantiles(shards []eunomia.Metrics) (p50, p99 float64) {
	type pt struct{ x, q float64 }
	var cdfs [][]pt
	var weights []float64
	var total, hi float64
	for _, m := range shards {
		d := m.Durability
		if d.Flushes == 0 {
			continue
		}
		c := []pt{{0, 0}, {float64(d.FlushP50Ns), 0.5}, {float64(d.FlushP99Ns), 0.99}, {float64(d.FlushMaxNs), 1}}
		cdfs = append(cdfs, c)
		weights = append(weights, float64(d.Flushes))
		total += float64(d.Flushes)
		hi = max(hi, float64(d.FlushMaxNs))
	}
	if total == 0 {
		return 0, 0
	}
	cdf := func(x float64) float64 {
		var s float64
		for i, c := range cdfs {
			f := 1.0
			for j := 1; j < len(c); j++ {
				if x < c[j].x {
					f = c[j-1].q + (c[j].q-c[j-1].q)*(x-c[j-1].x)/(c[j].x-c[j-1].x)
					break
				}
			}
			s += weights[i] * f
		}
		return s / total
	}
	solve := func(q float64) float64 {
		lo, up := 0.0, hi
		for i := 0; i < 60; i++ {
			mid := (lo + up) / 2
			if cdf(mid) < q {
				lo = mid
			} else {
				up = mid
			}
		}
		return up
	}
	return solve(0.5), solve(0.99)
}

// virtualReplay runs the first virtualOps ops of every worker's stream in
// virtual time on an emulated-backend DB preloaded like the workload's
// store: virtual_mops is what the paper's cost model predicts for this mix
// at this thread count. It is deterministic for a seed.
func (r *run) virtualReplay(m *hostModel) error {
	_, end := r.tr.begin("virtual-replay", r.root)
	defer end()
	db, err := eunomia.Open(eunomia.Options{ArenaWords: dbArena})
	if err != nil {
		return fmt.Errorf("open emulated db: %w", err)
	}
	defer db.Close()
	if err := load([]eunomia.Handle{db.NewHandle()}, preloadPairs(&m.inputs)); err != nil {
		return err
	}
	tallies := make([]tally, hostWorkers)
	var next atomic.Int32
	vr := db.RunVirtual(hostWorkers, func(th *eunomia.Thread) {
		// Cores enter in id order under the lockstep scheduler, so the
		// stream a core runs is the same on every run.
		w := int(next.Add(1) - 1)
		var buf []kv
		for _, o := range m.streams[w][:virtualOps] {
			a, err := do(th, o, &buf)
			msg := ""
			if err == nil {
				msg = checkOp(&m.inputs, m, w, o, a)
				m.apply(w, o)
			}
			tallies[w].result(o.kind, err, msg)
		}
	})
	for _, t := range tallies {
		r.tally.add(t)
	}
	ops := float64(hostWorkers * virtualOps)
	r.set("virtual_mops", ops/vr.Seconds/1e6)
	cycles := float64(vr.Cycles) * hostWorkers
	r.set("vclock.cycles_per_op", cycles/ops)
	r.set("htm.wasted_cycle_share", float64(vr.Stats.WastedCycles)/cycles)
	r.say("virtual replay: %.0f ops on %d virtual cores in %d cycles: %.4f virtual Mops/s",
		ops, hostWorkers, vr.Cycles, ops/vr.Seconds/1e6)
	return nil
}

// replayOps bounds the Session-versus-Thread replay.
const replayOps = 100000

// routeReplay sends the same op stream, single-threaded, through a Session
// of a host Cluster and a Thread of a host DB that hold the same preload.
// Chunks alternate which store goes first; the first store's answers are
// checked against the model and the second's must equal them. Thread
// latencies give thread.*, and Session minus Thread gives route_tax.*.
func (r *run) routeReplay(in *inputs, e expecter, apply func(w int, o op)) error {
	id, end := r.tr.begin("route-replay", r.root)
	defer end()
	pairs := preloadPairs(in)
	c, err := eunomia.OpenCluster(eunomia.ClusterOptions{Shard: eunomia.Options{Backend: eunomia.Host, ArenaWords: shardArena}})
	if err != nil {
		return fmt.Errorf("open replay cluster: %w", err)
	}
	defer c.Close()
	db, err := eunomia.Open(eunomia.Options{Backend: eunomia.Host, ArenaWords: dbArena})
	if err != nil {
		return fmt.Errorf("open replay db: %w", err)
	}
	defer db.Close()
	sess, th := c.NewHandle(), db.NewHandle()
	defer sess.Close()
	if err := load([]eunomia.Handle{sess}, pairs); err != nil {
		return err
	}
	if err := load([]eunomia.Handle{th}, pairs); err != nil {
		return err
	}
	type step struct {
		w, pos int
	}
	var steps []step
	for w, s := range in.streams {
		for pos := range s {
			if len(steps) == replayOps {
				break
			}
			steps = append(steps, step{w, pos})
		}
	}
	rec := r.tr.recorder(len(in.streams), id)
	names := [2][numKinds]string{}
	for k := range names[0] {
		names[0][k] = "replay/" + sessionSpan[k]
		names[1][k] = "replay/" + threadSpan[k]
	}
	handles := [2]eunomia.Handle{sess, th}
	const chunk = 512
	answers := make([]answer, chunk)
	errored := make([]bool, chunk) // the first store failed the op
	var bufs [2][]kv
	var t tally
	for c0 := 0; c0 < len(steps); c0 += chunk {
		part := steps[c0:min(c0+chunk, len(steps))]
		first := (c0 / chunk) % 2
		for pass, which := range [2]int{first, 1 - first} {
			h := handles[which]
			for i, st := range part {
				o := in.streams[st.w][st.pos]
				t0 := r.tr.now()
				a, err := do(h, o, &bufs[which])
				rec.record(names[which][o.kind], st.pos, t0, r.tr.now())
				if pass == 0 {
					errored[i] = err != nil
				}
				if err != nil {
					t.result(o.kind, err, "")
					continue
				}
				if pass == 0 {
					a.pairs = append([]kv(nil), a.pairs...)
					answers[i] = a
					msg := checkOp(in, e, st.w, o, a)
					apply(st.w, o)
					t.result(o.kind, nil, msg)
				} else if !errored[i] && !sameAnswer(answers[i], a) {
					t.result(o.kind, nil, fmt.Sprintf("replay: Session and Thread disagree on %s %d", kindNames[o.kind], keyOf(o.idx)))
				} else {
					t.result(o.kind, nil, "")
				}
			}
		}
	}
	r.tally.add(t)
	for _, k := range []opKind{opGet, opPut, opScan} {
		ses := r.tr.latency(names[0][k]).quantile(0.5) / 1e3
		thr := r.tr.latency(names[1][k]).quantile(0.5) / 1e3
		r.set("thread."+kindNames[k]+"_p50_us", thr)
		r.set("route_tax."+kindNames[k]+"_us", ses-thr)
	}
	r.say("route replay: %d ops each through a 4-shard Session and a DB Thread", len(steps))
	return nil
}
