package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dense"
	"repro/internal/exec"
	"repro/internal/gnn"
	"repro/internal/obs"
)

// spanKind names one traced layer boundary. Spans are recorded by the
// benchmark around public calls into each module, so the program under
// test is unchanged.
type spanKind uint8

const (
	spanRequest spanKind = iota // client call to return (root)
	spanAdmit                   // client call to model entry: gnn.Engine admission
	spanForward                 // the model's forward pass (parent of the layer spans)
	spanReturn                  // model exit to client return: gnn.Engine slot release
	spanBorrow                  // exec.Ctx.Borrow
	spanRelease                 // exec.Ctx.Release
	spanGemm                    // gnn.Linear.ForwardTo: the dense X·W transform
	spanAgg                     // gnn.Adjacency.MulToCtx: the aggregation
	spanReLU                    // dense.Matrix.ReLU
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spanRequest: "request",
	spanAdmit:   "gnn.admit",
	spanForward: "gnn.forward",
	spanReturn:  "gnn.return",
	spanBorrow:  "exec.borrow",
	spanRelease: "exec.release",
	spanGemm:    "dense.gemm",
	spanAgg:     "cbm.agg",
	spanReLU:    "dense.relu",
}

// spanParent is each kind's causing span.
var spanParent = [numSpanKinds]spanKind{
	spanAdmit: spanRequest, spanForward: spanRequest, spanReturn: spanRequest,
	spanBorrow: spanForward, spanRelease: spanForward, spanGemm: spanForward,
	spanAgg: spanForward, spanReLU: spanForward,
}

// span is one recorded interval. Layer is the GCN layer index, or −1.
type span struct {
	Req        int64
	Kind       spanKind
	Layer      int8
	Start, End time.Time
}

// clientTrace holds the spans of one client's requests. Only the
// goroutine that owns the client's output buffer touches it: the
// engine runs an unbatched request's forward pass on the caller's
// goroutine.
type clientTrace struct {
	req   int64
	call  time.Time // client call time of the request in flight
	exit  time.Time // model exit time of the request in flight
	spans []span
}

func (ct *clientTrace) add(k spanKind, layer int8, start, end time.Time) {
	if ct != nil {
		ct.spans = append(ct.spans, span{Req: ct.req, Kind: k, Layer: layer, Start: start, End: end})
	}
}

// tracedGCN serves a gnn.GCN2 through the same public calls, in the
// same order, that GCN2.InferTo makes, timing each one. Its output is
// bitwise identical to GCN2.InferTo's (see TestTracedModelBitwise).
// Spans go to the clientTrace registered for the output buffer; a
// request on any other buffer (a warm-up) is served untraced.
type tracedGCN struct {
	g     *gnn.GCN2
	byOut map[*dense.Matrix]*clientTrace // read-only while serving
}

func (m *tracedGCN) InDim() int  { return m.g.InDim() }
func (m *tracedGCN) OutDim() int { return m.g.OutDim() }

// InferTo mirrors GCN2.InferTo → GCNConv.ForwardTo twice, with ReLU
// between the layers.
func (m *tracedGCN) InferTo(ctx *exec.Ctx, out *dense.Matrix, a gnn.Adjacency, x *dense.Matrix) {
	ct := m.byOut[out]
	entry := time.Now()
	if ct != nil {
		ct.add(spanAdmit, -1, ct.call, entry)
	}
	sp := ctx.Begin(obs.StageInfer)
	t := time.Now()
	h := ctx.Borrow(a.Rows(), m.g.L0.Lin.Out)
	ct.mark(spanBorrow, -1, t)
	m.layer(ctx, ct, 0, m.g.L0, h, a, x)
	t = time.Now()
	h.ReLU()
	ct.mark(spanReLU, -1, t)
	m.layer(ctx, ct, 1, m.g.L1, out, a, h)
	t = time.Now()
	ctx.Release(h)
	ct.mark(spanRelease, -1, t)
	sp.End()
	exit := time.Now()
	if ct != nil {
		ct.add(spanForward, -1, entry, exit)
		ct.exit = exit
	}
}

// layer mirrors GCNConv.ForwardTo.
func (m *tracedGCN) layer(ctx *exec.Ctx, ct *clientTrace, l int8, c *gnn.GCNConv, out *dense.Matrix, a gnn.Adjacency, x *dense.Matrix) {
	sp := ctx.Begin(obs.StageLayer)
	ctx.Inc(obs.CounterLayerForwards)
	t := time.Now()
	xw := ctx.Borrow(x.Rows, c.Lin.Out)
	t = ct.mark(spanBorrow, l, t)
	c.Lin.ForwardTo(ctx, xw, x)
	t = ct.mark(spanGemm, l, t)
	a.MulToCtx(ctx, out, xw)
	t = ct.mark(spanAgg, l, t)
	ctx.Release(xw)
	ct.mark(spanRelease, l, t)
	sp.End()
}

// mark records a span from start to now and returns now, the start of
// the next span.
func (ct *clientTrace) mark(k spanKind, layer int8, start time.Time) time.Time {
	now := time.Now()
	ct.add(k, layer, start, now)
	return now
}

// writeSpans writes every span as one JSON object per line, with times
// in nanoseconds since epoch.
func writeSpans(path string, epoch time.Time, traces []*clientTrace, header string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, header)
	for _, ct := range traces {
		for _, s := range ct.spans {
			parent := ""
			if s.Kind != spanRequest {
				parent = spanNames[spanParent[s.Kind]]
			}
			fmt.Fprintf(w, `{"req":%d,"name":%q,"layer":%d,"parent":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				s.Req, spanNames[s.Kind], s.Layer, parent, s.Start.Sub(epoch).Nanoseconds(), s.End.Sub(epoch).Nanoseconds())
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reqBreakdown is one traced request's time per layer, in ms.
type reqBreakdown struct {
	request, admit, forward, ret, scratch, relu float64
	gemm, agg                                   [2]float64
}

// leaves is the summed self time of the layer spans — everything but
// the request and forward spans, which only contain others.
func (b reqBreakdown) leaves() float64 {
	return b.admit + b.ret + b.scratch + b.relu + b.gemm[0] + b.gemm[1] + b.agg[0] + b.agg[1]
}

// breakdowns groups the spans of complete requests by request id.
func breakdowns(traces []*clientTrace) []reqBreakdown {
	var out []reqBreakdown
	for _, ct := range traces {
		byReq := map[int64]*reqBreakdown{}
		var order []int64
		for _, s := range ct.spans {
			b := byReq[s.Req]
			if b == nil {
				b = &reqBreakdown{}
				byReq[s.Req] = b
				order = append(order, s.Req)
			}
			d := ms(s.End.Sub(s.Start))
			switch s.Kind {
			case spanRequest:
				b.request = d
			case spanAdmit:
				b.admit = d
			case spanForward:
				b.forward = d
			case spanReturn:
				b.ret = d
			case spanBorrow, spanRelease:
				b.scratch += d
			case spanReLU:
				b.relu = d
			case spanGemm:
				b.gemm[s.Layer] = d
			case spanAgg:
				b.agg[s.Layer] = d
			}
		}
		for _, id := range order {
			if b := byReq[id]; b.request > 0 && b.forward > 0 {
				out = append(out, *b)
			}
		}
	}
	return out
}
