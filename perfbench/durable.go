package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"eunomia"
)

// durableRestart measures the durable layer after a workload's timed
// phase. It loads pairs, the workload's verified final contents, into a
// durable 4-shard host Cluster on a fresh directory (leader-based group
// commit: every Put returns after its fsync), takes a timed Sync and a
// timed Snapshot, sends the first tailOps writes of each of streams so the
// log holds frames past the snapshot, closes, and reopens the directory
// `reopens` times: recover_s is the fastest reopen (snapshot load plus log
// replay). step checks each tail write's answer and records the write in
// the model; it is called only from that stream's goroutine. The first
// reopen must hold exactly want's contents: every acknowledged write is
// back.
//
// The write latency of a durable store is the latency of the disk's
// fsync, which on a shared virtual disk varies several-fold from minute
// to minute; so the durable layer's end-to-end figure is recovery, and its
// write path is reported per layer.
func (r *run) durableRestart(pairs []kv, n int, want func(uint32) []uint64, streams [][]op, step func(w int, o op, a answer) string) error {
	dir, err := os.MkdirTemp(r.cfg.work, "durable-")
	if err != nil {
		return err
	}
	defer removeDir(dir)
	c, err := eunomia.OpenCluster(clusterOptions(dir))
	if err != nil {
		return fmt.Errorf("open durable cluster: %w", err)
	}
	_, end := r.tr.begin("durable-load", r.root)
	t0 := time.Now()
	err = withHandles(c, hostWorkers, func(hs []eunomia.Handle) error { return load(hs, pairs) })
	loadS := time.Since(t0).Seconds()
	end()
	if err != nil {
		c.Close()
		return err
	}
	timed := func(name string, f func() error) (float64, error) {
		t0 := time.Now()
		_, end := r.tr.begin(name, r.root)
		err := f()
		end()
		return time.Since(t0).Seconds(), err
	}
	syncS, err := timed("Cluster.Sync", c.Sync)
	if err == nil {
		var snapS float64
		snapS, err = timed("Cluster.Snapshot", c.Snapshot)
		r.set("durable.snapshot_ms", snapS*1e3)
	}
	if err != nil {
		c.Close()
		return fmt.Errorf("sync/snapshot: %w", err)
	}
	r.set("durable.sync_ms", syncS*1e3)
	tailWrites := r.durableTail(c, streams, step)
	written := c.ClusterMetrics()
	if _, err := timed("Cluster.Close", c.Close); err != nil {
		return fmt.Errorf("close durable cluster: %w", err)
	}
	disk, err := dirBytes(dir)
	if err != nil {
		return err
	}
	var reopened eunomia.ClusterMetrics
	live := 0
	err = r.recoverStore(func() (eunomia.Store, error) {
		return eunomia.OpenCluster(clusterOptions(dir))
	}, func(st eunomia.Store) {
		got := dumpStore(st)
		live = len(got)
		r.checkContents("after durable reopen", got, n, want)
		reopened = st.(*eunomia.Cluster).ClusterMetrics()
	})
	if err != nil {
		return err
	}
	r.say("durable: loaded %d pairs in %.2f s, sync %.3f ms, %d tail writes, %d bytes on disk for %d live pairs",
		len(pairs), loadS, syncS*1e3, tailWrites, disk, live)

	writes := float64(uint64(len(pairs)) + tailWrites)
	d := written.Agg.Durability
	r.set("durable.fsyncs_per_write", float64(d.Flushes)/writes)
	r.set("durable.frames_per_fsync", float64(d.FlushedFrames)/float64(d.Flushes))
	r.set("durable.wal_bytes_per_write", float64(d.FlushedBytes)/writes)
	p50, p99 := mergedFlushQuantiles(written.PerShard)
	r.set("durable.flush_p50_us", p50/1e3)
	r.set("durable.flush_p99_us", p99/1e3)
	r.set("durable.snapshots", float64(d.Snapshots))
	r.set("durable.replayed_frames", float64(reopened.Agg.Durability.ReplayedFrames))
	r.set("durable.snapshot_pairs", float64(reopened.Agg.Durability.SnapshotPairs))
	r.set("durable.disk_bytes_per_live_byte", float64(disk)/float64(16*live))
	return nil
}

// durableTail sends the first tailOps writes of each stream through a
// Session of its own, the streams concurrently. It returns the writes
// acknowledged.
func (r *run) durableTail(c *eunomia.Cluster, streams [][]op, step func(w int, o op, a answer) string) uint64 {
	_, end := r.tr.begin("durable-tail", r.root)
	defer end()
	tallies := make([]tally, len(streams))
	var wg sync.WaitGroup
	for w, s := range streams {
		h := c.NewHandle()
		wg.Add(1)
		go func(w int, s []op, h eunomia.Handle) {
			defer wg.Done()
			defer h.Close()
			n := 0
			for _, o := range s {
				if n == tailOps {
					break
				}
				if o.kind != opPut && o.kind != opDelete {
					continue
				}
				n++
				a, err := do(h, o, nil)
				msg := ""
				if err == nil {
					msg = step(w, o, a)
				}
				tallies[w].result(o.kind, err, msg)
			}
		}(w, s, h)
	}
	wg.Wait()
	var acked uint64
	for _, t := range tallies {
		r.tally.add(t)
		acked += t.kinds[opPut] + t.kinds[opDelete]
	}
	return acked
}

// removeDir deletes a durable data directory and syncs its parent, so the
// filesystem commits the deletion (and, on a filesystem mounted with
// discard, trims the freed blocks) before the process exits rather than
// inside a later timed fsync.
func removeDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	parent, err := os.Open(filepath.Dir(dir))
	if err != nil {
		return err
	}
	defer parent.Close()
	return parent.Sync()
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			n += info.Size()
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("size of %s: %w", dir, err)
	}
	return n, nil
}
