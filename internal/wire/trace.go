package wire

import (
	"encoding/binary"
	"fmt"

	"funcdb/internal/reqtrace"
)

// Trace-context frame codec. A FrameTraceCtx payload is
//
//	tracectx := id:uint64le hop:uint8 flags:uint8     (10 bytes)
//
// flags bit 0 is the sampled bit; the other bits must be zero. The frame
// annotates the frame written immediately after it, so the context is one
// mechanism for every traced frame — requests, forwards, log records —
// instead of a suffix on each of their payloads.

// traceCtxLen is the FrameTraceCtx payload size.
const traceCtxLen = 10

// ctxSampled is the sampled bit in the flag byte.
const ctxSampled = 1 << 0

// AppendTraceCtx encodes a FrameTraceCtx payload.
func AppendTraceCtx(dst []byte, c reqtrace.Ctx) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, c.ID)
	var flags byte
	if c.Sampled {
		flags |= ctxSampled
	}
	return append(dst, c.Hop, flags)
}

// DecodeTraceCtx decodes a FrameTraceCtx payload.
func DecodeTraceCtx(buf []byte) (reqtrace.Ctx, error) {
	if len(buf) != traceCtxLen {
		return reqtrace.Ctx{}, fmt.Errorf("%w: trace context is %d bytes, want %d", ErrCorrupt, len(buf), traceCtxLen)
	}
	flags := buf[9]
	if flags&^byte(ctxSampled) != 0 {
		return reqtrace.Ctx{}, fmt.Errorf("%w: bad trace flags %#x", ErrCorrupt, flags)
	}
	return reqtrace.Ctx{
		ID:      binary.LittleEndian.Uint64(buf),
		Hop:     buf[8],
		Sampled: flags&ctxSampled != 0,
	}, nil
}

// AppendTraceFrame appends a complete FrameTraceCtx frame carrying c when
// c is a sampled trace, and nothing otherwise: every send site calls it
// just before framing the request (or log record) the context belongs to.
func AppendTraceFrame(dst []byte, c reqtrace.Ctx) []byte {
	if !c.Sampled || !c.Valid() {
		return dst
	}
	dst, mark := BeginFrame(dst, FrameTraceCtx)
	dst, _ = EndFrame(AppendTraceCtx(dst, c), mark) // 10 bytes: never over MaxFrameLen
	return dst
}
