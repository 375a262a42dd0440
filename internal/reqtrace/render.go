package reqtrace

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// FormatID renders a trace id the way every surface prints it: 16 hex
// digits, zero-padded, stable for grepping across nodes.
func FormatID(id uint64) string { return fmt.Sprintf("%016x", id) }

// ParseID reverses FormatID; ok is false for anything else.
func ParseID(s string) (uint64, bool) {
	id, err := strconv.ParseUint(s, 16, 64)
	return id, err == nil
}

// Stitch groups published traces by id: one group per distributed
// request, the per-node fragments sorted by hop (then node name). The
// groups come back newest-first by the origin fragment's start time.
func Stitch(traces []Trace) [][]Trace {
	byID := make(map[string][]Trace)
	order := make([]string, 0, len(traces))
	for _, tr := range traces {
		if _, ok := byID[tr.ID]; !ok {
			order = append(order, tr.ID)
		}
		byID[tr.ID] = append(byID[tr.ID], tr)
	}
	out := make([][]Trace, 0, len(byID))
	for _, id := range order {
		g := byID[id]
		sort.SliceStable(g, func(i, j int) bool {
			if g[i].Hop != g[j].Hop {
				return g[i].Hop < g[j].Hop
			}
			return g[i].Node < g[j].Node
		})
		out = append(out, g)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i][0].Start > out[j][0].Start })
	return out
}

// fmtNS rounds a nanosecond count for the timeline (microsecond grain
// under a millisecond, 10µs grain above).
func fmtNS(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d < time.Millisecond:
		return d.Round(time.Microsecond).String()
	case d < time.Second:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Millisecond).String()
	}
}

// Render draws the human timeline for a set of published traces: one
// block per trace id, one indented line per node fragment (the hop
// tree), each span with its offset from the trace's first recorded
// instant and its duration. This is what fdbrepl's .trace prints and
// what /debug/trace serves as text.
func Render(traces []Trace) string {
	var b strings.Builder
	for gi, group := range Stitch(traces) {
		if gi > 0 {
			b.WriteByte('\n')
		}
		RenderGroup(&b, group)
	}
	return b.String()
}

// RenderGroup draws one stitched trace (every fragment shares the id).
func RenderGroup(b *strings.Builder, group []Trace) {
	// The epoch for offsets: the earliest span start anywhere in the
	// group (clocks are per-node unix nanos; on one host they align, and
	// even across hosts the offsets stay readable).
	epoch := int64(0)
	total := int64(0)
	for _, tr := range group {
		for _, sp := range tr.Spans {
			if epoch == 0 || sp.Start < epoch {
				epoch = sp.Start
			}
		}
		if tr.Hop == 0 && tr.Total > total {
			total = tr.Total
		}
	}
	if total == 0 && len(group) > 0 {
		total = group[0].Total
	}
	mark := ""
	for _, tr := range group {
		if tr.Slow {
			mark = "  SLOW"
			break
		}
	}
	fmt.Fprintf(b, "trace %s  total %s  hops %d%s\n", group[0].ID, fmtNS(total), len(group), mark)
	for _, tr := range group {
		fmt.Fprintf(b, "  hop %d  %s", tr.Hop, tr.Node)
		if tr.Dropped > 0 {
			fmt.Fprintf(b, "  (%d spans dropped)", tr.Dropped)
		}
		b.WriteByte('\n')
		spans := append([]SpanInfo(nil), tr.Spans...)
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		for _, sp := range spans {
			fmt.Fprintf(b, "    %-20s +%-10s %s\n", sp.Stage, fmtNS(sp.Start-epoch), fmtNS(sp.Dur))
		}
	}
}
