package main

// The metric catalogue: every name the benchmark prints, with its unit,
// which way is better, and where it comes from. BENCHMARK.json declares
// exactly these names (a test holds the two together); the names are fixed
// so that later changes can state their claim by metric and workload.

// where says which workloads produce a metric.
type where uint8

const (
	onAll where = iota
	onNetwork
	onDurable
	onCluster
	onArchive // every workload with a durable archive
)

func (w where) covers(wl *workload) bool {
	switch w {
	case onNetwork:
		return wl.network()
	case onDurable:
		return wl.name == "durable-write"
	case onCluster:
		return wl.name == "cluster-prepared"
	case onArchive:
		return wl.name != "engine-point"
	default:
		return true
	}
}

type decl struct {
	name   string
	unit   string
	higher bool // higher is better
	// endToEnd marks the metrics BENCHMARK.json bounds. userFacing marks
	// the other end-to-end metrics; BENCHMARK.json declares them in its
	// per-layer section, where nothing is bounded, and everywhere else they
	// are listed with the end-to-end ones.
	endToEnd   bool
	userFacing bool
	on         where
}

// stageNames is the program's 13-stage tracing catalogue, in causal order.
var stageNames = []string{
	"client-dial", "client-send", "conn-read", "decode", "session-queue",
	"plan", "lane-wait", "lane-commit", "group-commit-fsync",
	"encode", "flush", "forward-hop", "replica-apply",
}

// catalog returns the declarations, in the order BENCHMARK.json lists them.
func catalog() []decl { return catalogDecls }

var catalogDecls = buildCatalog()

func buildCatalog() []decl {
	ds := []decl{
		// End to end and bounded in BENCHMARK.json: what every workload
		// produces and this sandbox can repeat. (setup_s is there because
		// the contract requires it.)
		{name: "setup_s", unit: "s", endToEnd: true},
		{name: "allocs_per_op", unit: "allocs", endToEnd: true},
		// End to end, not bounded there: everything that moves with the
		// sandbox's speed, which baseline/ shows drifting by 20–50 % between
		// identical runs (the issue's rule: what cannot repeat within 0.25
		// is demoted, not given a wider bound) — the timings, and the live
		// heap, which on cluster-prepared grows with the operations completed
		// — and the metrics only some workloads can produce.
		{name: "heap_live_mb", unit: "MB", userFacing: true},
		{name: "sat_ops_per_s", unit: "ops/s", higher: true, userFacing: true},
		{name: "sat_p50_us", unit: "us", userFacing: true},
		{name: "sat_p99_us", unit: "us", userFacing: true},
		{name: "cpu_us_per_op", unit: "us", userFacing: true},
		{name: "paced_p50_us", unit: "us", userFacing: true, on: onNetwork},
		{name: "paced_p99_us", unit: "us", userFacing: true, on: onNetwork},
		{name: "paced_read_p50_us", unit: "us", userFacing: true, on: onNetwork},
		{name: "paced_write_p50_us", unit: "us", userFacing: true, on: onNetwork},
		{name: "rate_ok_ops_per_s", unit: "ops/s", higher: true, userFacing: true, on: onNetwork},
		{name: "failed_ratio", unit: "ratio", userFacing: true},
		{name: "recover_us_per_record", unit: "us", userFacing: true, on: onDurable},
		{name: "stored_bytes_per_user_byte", unit: "ratio", userFacing: true, on: onDurable},
		{name: "unavailable_ms", unit: "ms", userFacing: true, on: onCluster},

		// Per layer, source 2: the program's counters over the sat phase,
		// the runtime, the generator, and the rest of the latency curve.
		{name: "engine.cas_retries_per_kop", unit: "count"},
		{name: "engine.cross_lane_per_kop", unit: "count"},
		{name: "engine.commit_ns.mean", unit: "ns"},
		{name: "engine.lane_skew", unit: "ratio"},
		{name: "session.flush_depth.mean", unit: "count", higher: true},
		{name: "archive.records_per_flush.mean", on: onArchive, unit: "count", higher: true},
		{name: "archive.fsync_ns.mean", on: onArchive, unit: "ns"},
		{name: "archive.fsyncs_per_kop", on: onArchive, unit: "count"},
		{name: "archive.bytes_per_write", on: onArchive, unit: "bytes"},
		{name: "server.exec_ns.mean", on: onNetwork, unit: "ns"},
		{name: "server.forward_ns.mean", on: onNetwork, unit: "ns"},
		{name: "server.unknown_stmts", on: onNetwork, unit: "count"},
		{name: "cluster.forwards_per_op", on: onNetwork, unit: "ratio"},
		{name: "cluster.stmts_per_forward", on: onNetwork, unit: "count", higher: true},
		{name: "cluster.redirects_per_kop", on: onNetwork, unit: "count"},
		{name: "cluster.replica_lag_max", on: onNetwork, unit: "count"},
		{name: "cluster.heartbeat_rtt_ns.mean", unit: "ns", on: onCluster},
		{name: "cluster.promotions", unit: "count", on: onCluster},
		{name: "cluster.fencing_rejections", unit: "count", on: onCluster},
		{name: "sharing.created_per_write", unit: "count"},
		{name: "sharing.shared_ratio", unit: "ratio", higher: true},
		{name: "runtime.gc_per_s", unit: "1/s"},
		{name: "runtime.gc_pause_ms_per_s", unit: "ms/s"},
		{name: "runtime.goroutines_peak", unit: "count"},
		{name: "gen.lag_p50_us", unit: "us", on: onNetwork},
		{name: "gen.lag_p99_us", unit: "us", on: onNetwork},
		{name: "gen.achieved_over_offered", unit: "ratio", higher: true, on: onNetwork},
		{name: "gen.backlog_end", unit: "ratio", on: onNetwork},
		{name: "curve.low.p50_us", unit: "us", on: onNetwork},
		{name: "curve.low.p99_us", unit: "us", on: onNetwork},
		{name: "curve.high.p50_us", unit: "us", on: onNetwork},
		{name: "curve.high.p99_us", unit: "us", on: onNetwork},
		{name: "curve.mid.slo_miss_ratio", unit: "ratio", on: onNetwork},
		{name: "paced_p999_us", unit: "us", on: onNetwork},

		// Per layer, source 1: the ladder.
		{name: "value.encode_tuple_ns", unit: "ns"},
		{name: "value.decode_tuple_ns", unit: "ns"},
		{name: "relation.find_ns.list", unit: "ns"},
		{name: "relation.insert_ns.list", unit: "ns"},
		{name: "relation.find_ns.avl", unit: "ns"},
		{name: "relation.insert_ns.avl", unit: "ns"},
		{name: "query.translate_ns", unit: "ns"},
		{name: "query.bind_ns", unit: "ns"},
		{name: "core.read_ns", unit: "ns"},
		{name: "core.write_ns", unit: "ns"},
		{name: "core.write_ns.disjoint", unit: "ns"},
		{name: "core.write_ns.contended", unit: "ns"},
		{name: "session.exec_ns", unit: "ns"},
		{name: "session.batch16_ns_per_stmt", unit: "ns"},
		{name: "archive.write_ns.nosync", unit: "ns"},
		{name: "archive.write_ns.group", unit: "ns"},
		{name: "archive.write_ns.fsync", unit: "ns"},
		{name: "archive.snapshot_ms", unit: "ms"},
		{name: "archive.recover_us_per_record", unit: "us"},
		{name: "wire.frame_encode_ns", unit: "ns"},
		{name: "wire.frame_decode_ns", unit: "ns"},
		{name: "client.dial_us", unit: "us"},
		{name: "server.roundtrip_us.read", unit: "us"},
		{name: "server.roundtrip_us.write", unit: "us"},
		{name: "server.pipelined_us_per_op", unit: "us"},
		{name: "server.batch16_us_per_stmt", unit: "us"},
		{name: "cluster.roundtrip_us.owner", unit: "us"},
		{name: "cluster.roundtrip_us.gateway", unit: "us"},
		{name: "cluster.forward_hop_us", unit: "us"},
		{name: "cluster.ack_gate_us", unit: "us"},
		{name: "cluster.replica_apply_lag_us", unit: "us"},
		{name: "ladder.unattributed_us", unit: "us"},
	}
	// Per layer, source 3: the traced run.
	for _, st := range stageNames {
		ds = append(ds,
			decl{name: "stage." + st + ".mean_us", unit: "us"},
			decl{name: "stage." + st + ".p99_us", unit: "us"})
	}
	ds = append(ds,
		decl{name: "stage.unattributed.mean_us", unit: "us"},
		decl{name: "stage.sum_over_total", unit: "ratio", higher: true},
		decl{name: "trace.complete_ratio", unit: "ratio", higher: true},
		decl{name: "trace.overhead_pct", unit: "%"})
	return ds
}

func declOf(name string) (decl, bool) {
	for _, d := range catalog() {
		if d.name == name {
			return d, true
		}
	}
	return decl{}, false
}

// isEndToEnd reports whether name is an end-to-end metric in the issue's
// sense (bounded or not): the ones a user of the system would see.
func isEndToEnd(name string) bool {
	d, ok := declOf(name)
	return ok && (d.endToEnd || d.userFacing)
}

func better(d decl) string {
	if d.higher {
		return "higher"
	}
	return "lower"
}
