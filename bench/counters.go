package main

import (
	"funcdb"
)

// Per-layer metrics from the program's existing counters: MetricsSnapshot
// is read before and after a timed window, from outside the program, and
// the window's share is the difference. With several nodes the counters are
// summed over the nodes alive at both ends.

// counts is the sum of one or more MetricsSnapshots, reduced to the fields
// the layer metrics use.
type counts struct {
	admitted, casRetries, crossLane int64
	commitSum, commitN              int64
	laneCommits                     []int64

	sessFlushes, sessDepthSum int64

	archAppends, archBytes   int64
	flushRecSum, flushRecN   int64
	fsyncSum, fsyncN         int64
	srvExecSum, srvExecN     int64
	srvFwdSum, srvFwdN       int64
	srvUnknown               int64
	cluForwards, cluFwdStmts int64
	cluRedirects, cluPromos  int64
	cluFenced                int64
	hbSum, hbN               int64
	created, shared          int64
	replicaLagMax            int64 // instantaneous, not a difference
	// Which optional sections the snapshots carried: a layer that is not
	// part of the system reports nothing, not zero.
	hasArchive, hasServer, hasCluster bool
}

func sumSnapshots(snaps []funcdb.MetricsSnapshot) counts {
	var c counts
	versions := map[int]int64{}
	for _, s := range snaps {
		c.admitted += s.Engine.Admitted
		c.casRetries += s.Engine.CASRetries
		c.crossLane += s.Engine.CrossLane
		c.commitSum += s.Engine.CommitLatency.Sum
		c.commitN += s.Engine.CommitLatency.Count
		for i, n := range s.Engine.LaneCommits {
			if i >= len(c.laneCommits) {
				c.laneCommits = append(c.laneCommits, make([]int64, i+1-len(c.laneCommits))...)
			}
			c.laneCommits[i] += n
		}
		c.sessFlushes += s.Session.Flushes
		c.sessDepthSum += s.Session.FlushDepth.Sum
		if a := s.Archive; a != nil {
			c.hasArchive = true
			c.archAppends += a.Appends
			c.archBytes += a.Bytes
			c.flushRecSum += a.FlushRecords.Sum
			c.flushRecN += a.FlushRecords.Count
			c.fsyncSum += a.FsyncLatency.Sum
			c.fsyncN += a.FsyncLatency.Count
		}
		if sv := s.Server; sv != nil {
			c.hasServer = true
			c.srvExecSum += sv.LatencyExec.Sum
			c.srvExecN += sv.LatencyExec.Count
			c.srvFwdSum += sv.LatencyForward.Sum
			c.srvFwdN += sv.LatencyForward.Count
			c.srvUnknown += sv.UnknownStmts
		}
		if cl := s.Cluster; cl != nil {
			c.hasCluster = true
			c.cluForwards += cl.Forwards
			c.cluFwdStmts += cl.ForwardStmts
			c.cluRedirects += cl.Redirects
			c.cluPromos += cl.Promotions
			c.cluFenced += cl.FencingRejections
			c.hbSum += cl.HeartbeatRTT.Sum
			c.hbN += cl.HeartbeatRTT.Count
		}
		c.created += s.Sharing.NodesCreated
		c.shared += s.Sharing.NodesShared
		if id, ok := nodeID(s.Origin); ok {
			versions[id] = s.Version
		}
	}
	// Replica lag: a primary's version minus what each mirror has applied
	// of it, in commits, at this instant.
	for _, s := range snaps {
		for _, p := range s.Peers {
			if v, ok := versions[p.Peer]; ok && p.ReplicaApplied >= 0 && v-p.ReplicaApplied > c.replicaLagMax {
				c.replicaLagMax = v - p.ReplicaApplied
			}
		}
	}
	return c
}

// nodeID parses the "node<i>" origin a cluster node's store carries.
func nodeID(origin string) (int, bool) {
	const prefix = "node"
	if len(origin) <= len(prefix) || origin[:len(prefix)] != prefix {
		return 0, false
	}
	id := 0
	for _, ch := range origin[len(prefix):] {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		id = id*10 + int(ch-'0')
	}
	return id, true
}

// layerCounters turns the counters of one window (a before, b after) with
// ops completed operations into the per-layer metrics of source 2.
func layerCounters(a, b counts, ops int64, before, after usage) metrics {
	ms := metrics{}
	d := func(x, y int64) float64 { return float64(y - x) }
	kop := float64(ops) / 1000
	writes := d(a.admitted, b.admitted)

	ms.put("engine.cas_retries_per_kop", "count", ratio(d(a.casRetries, b.casRetries), kop))
	ms.put("engine.cross_lane_per_kop", "count", ratio(d(a.crossLane, b.crossLane), kop))
	ms.put("engine.commit_ns.mean", "ns", ratio(d(a.commitSum, b.commitSum), d(a.commitN, b.commitN)))
	ms.put("engine.lane_skew", "ratio", laneSkew(a.laneCommits, b.laneCommits))

	ms.put("session.flush_depth.mean", "count", ratio(d(a.sessDepthSum, b.sessDepthSum), d(a.sessFlushes, b.sessFlushes)))

	if b.hasArchive {
		ms.put("archive.records_per_flush.mean", "count", ratio(d(a.flushRecSum, b.flushRecSum), d(a.flushRecN, b.flushRecN)))
		ms.put("archive.fsync_ns.mean", "ns", ratio(d(a.fsyncSum, b.fsyncSum), d(a.fsyncN, b.fsyncN)))
		ms.put("archive.fsyncs_per_kop", "count", ratio(d(a.fsyncN, b.fsyncN), kop))
		ms.put("archive.bytes_per_write", "bytes", ratio(d(a.archBytes, b.archBytes), d(a.archAppends, b.archAppends)))
	}
	if b.hasServer {
		ms.put("server.exec_ns.mean", "ns", ratio(d(a.srvExecSum, b.srvExecSum), d(a.srvExecN, b.srvExecN)))
		ms.put("server.forward_ns.mean", "ns", ratio(d(a.srvFwdSum, b.srvFwdSum), d(a.srvFwdN, b.srvFwdN)))
		ms.put("server.unknown_stmts", "count", d(a.srvUnknown, b.srvUnknown))
	}
	if b.hasCluster {
		ms.put("cluster.forwards_per_op", "ratio", ratio(d(a.cluForwards, b.cluForwards), float64(ops)))
		ms.put("cluster.stmts_per_forward", "count", ratio(d(a.cluFwdStmts, b.cluFwdStmts), d(a.cluForwards, b.cluForwards)))
		ms.put("cluster.redirects_per_kop", "count", ratio(d(a.cluRedirects, b.cluRedirects), kop))
		ms.put("cluster.replica_lag_max", "count", float64(b.replicaLagMax))
	}

	ms.put("sharing.created_per_write", "count", ratio(d(a.created, b.created), writes))
	ms.put("sharing.shared_ratio", "ratio", ratio(d(a.shared, b.shared), d(a.shared, b.shared)+d(a.created, b.created)))

	dt := after.at.Sub(before.at).Seconds()
	ms.put("runtime.gc_per_s", "1/s", ratio(float64(after.mem.NumGC-before.mem.NumGC), dt))
	ms.put("runtime.gc_pause_ms_per_s", "ms/s", ratio(float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, dt))
	return ms
}

// laneSkew is the busiest lane's commits over the mean per lane: 1 is an
// even spread, the lane count is everything on one lane.
func laneSkew(a, b []int64) float64 {
	var total, max float64
	for i := range b {
		n := float64(b[i])
		if i < len(a) {
			n -= float64(a[i])
		}
		total += n
		if n > max {
			max = n
		}
	}
	if total == 0 {
		return 0
	}
	return max / (total / float64(len(b)))
}

// failoverCounters are the cluster counters that only move during the
// failover epilogue, taken over the whole run on the surviving nodes.
func failoverCounters(a, b counts) metrics {
	ms := metrics{}
	ms.put("cluster.heartbeat_rtt_ns.mean", "ns", ratio(float64(b.hbSum-a.hbSum), float64(b.hbN-a.hbN)))
	ms.put("cluster.promotions", "count", float64(b.cluPromos-a.cluPromos))
	ms.put("cluster.fencing_rejections", "count", float64(b.cluFenced-a.cluFenced))
	return ms
}
