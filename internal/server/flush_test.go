package server

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"funcdb/internal/core"
	"funcdb/internal/lenient"
	"funcdb/internal/session"
	"funcdb/internal/value"
	"funcdb/internal/wire"
)

// TestFlushFailureForcesEveryLaterFuture: a flush that fails on an
// oversize response still forces the futures of every reply queued after
// it. On a gateway those futures are what read forwarded replies off the
// peer link; an unforced one leaves its reply parked there for good.
func TestFlushFailureForcesEveryLaterFuture(t *testing.T) {
	// One 1 MiB tuple, referenced 65 times: a 65 MiB response from 1 MiB
	// of memory.
	big := value.NewTuple(value.Int(1), value.Str(strings.Repeat("x", 1<<20)))
	tuples := make([]value.Tuple, 65)
	for i := range tuples {
		tuples[i] = big
	}
	var forced []int
	lazy := func(i int) *session.Future {
		return lenient.Lazy(func() core.Response {
			forced = append(forced, i)
			return core.Response{Origin: "c", Seq: i, Kind: core.KindFind}
		})
	}
	pending := []reply{
		{id: 0, index: -1, fut: lazy(0)},
		{id: 1, index: -1, fut: lenient.Ready(core.Response{Origin: "c", Seq: 1, Kind: core.KindScan, Tuples: tuples})},
		{id: 2, index: -1, fut: lazy(2)},
		{id: 3, index: -1, futs: []*session.Future{lazy(3), lazy(4)}},
		{id: 4, index: -1, qerr: errors.New("refused")},
	}
	rb := replyBuf{out: make([]byte, 0, wire.MaxFrameLen+(2<<20))}
	if err := rb.encode(pending); !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("encode = %v, want ErrTooLarge", err)
	}
	if got, want := fmt.Sprint(forced), fmt.Sprint([]int{0, 2, 3, 4}); got != want {
		t.Fatalf("forced futures %s, want %s: every one before the failure and every one after it", got, want)
	}
}
