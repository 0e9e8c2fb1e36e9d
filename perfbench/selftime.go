package main

import (
	"sort"
	"strings"
	"time"

	"tbd/internal/prof"
)

// span is one profiler record with its self time: its duration minus
// the part of its interval that its child spans cover.
type span struct {
	prof.Record
	Self time.Duration
}

func (s span) end() time.Duration { return s.Start + s.Dur }

// contains reports whether s's interval covers c's.
func (s span) contains(c span) bool { return s.Start <= c.Start && c.end() <= s.end() }

// selfTimes computes every record's self time. A record's parent is the
// span its Parent edge names when that span's interval contains it;
// otherwise (a root, a parent outside the capture, or an edge crossed by
// a concurrent goroutine's span) the innermost record whose interval
// contains it, if any. Child intervals are unioned, so overlapping
// children are not subtracted twice.
func selfTimes(recs []prof.Record) []span {
	spans := make([]span, len(recs))
	byID := make(map[uint64]int, len(recs))
	for i, r := range recs {
		spans[i] = span{Record: r}
		byID[r.ID] = i
	}
	parent := make([]int, len(spans))
	// Sweep in start order (longer first on ties) with a stack of open
	// spans to find the innermost container of each span.
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.Dur > y.Dur
	})
	var stack []int
	for _, i := range order {
		s := spans[i]
		parent[i] = -1
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 && p != i && spans[p].contains(s) {
			parent[i] = p
		}
		for len(stack) > 0 && spans[stack[len(stack)-1]].end() <= s.Start {
			stack = stack[:len(stack)-1]
		}
		if parent[i] < 0 {
			for j := len(stack) - 1; j >= 0; j-- {
				if spans[stack[j]].contains(s) {
					parent[i] = stack[j]
					break
				}
			}
		}
		stack = append(stack, i)
	}
	children := make([][]int, len(spans))
	for i, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	for i := range spans {
		spans[i].Self = spans[i].Dur - covered(spans, i, children[i])
	}
	return spans
}

// covered returns how much of span p's interval the union of the given
// children covers.
func covered(spans []span, p int, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	lo, hi := spans[p].Start, spans[p].end()
	for _, k := range kids {
		a, b := max(spans[k].Start, lo), min(spans[k].end(), hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	return total + curHi - curLo
}

// spanTotals sums self time, duration, FLOPs and count over spans
// matching a predicate.
type spanTotals struct {
	self, dur time.Duration
	flops     float64
	count     int
}

func totals(spans []span, match func(span) bool) spanTotals {
	var t spanTotals
	for _, s := range spans {
		if match(s) {
			t.self += s.Self
			t.dur += s.Dur
			t.flops += s.FLOPs
			t.count++
		}
	}
	return t
}

func named(name string) func(span) bool {
	return func(s span) bool { return s.Name == name }
}

func isGemm(s span) bool { return s.Cat == prof.CatKernel && strings.HasPrefix(s.Name, "gemm") }

func inCat(c prof.Cat) func(span) bool {
	return func(s span) bool { return s.Cat == c }
}

// perOpMs converts a total to milliseconds per operation.
func perOpMs(d time.Duration, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return 1e3 * d.Seconds() / float64(ops)
}

// setKernelMetrics fills the tensor, layers and optimizer rows shared by
// every traced workload: per-op self time of each kernel family and the
// layer code around it, and achieved GEMM throughput.
func setKernelMetrics(rep *report, spans []span, ops int) {
	rep.set("tensor.conv2d_fwd.self_ms", perOpMs(totals(spans, named("conv2d.fwd")).self, ops))
	rep.set("tensor.conv2d_bwd.self_ms", perOpMs(totals(spans, named("conv2d.bwd")).self, ops))
	rep.set("tensor.im2col.ms", perOpMs(totals(spans, named("im2col")).dur, ops))
	rep.set("tensor.col2im.ms", perOpMs(totals(spans, named("col2im")).dur, ops))
	g := totals(spans, isGemm)
	rep.set("tensor.gemm.self_ms", perOpMs(g.self, ops))
	// FLOPs sit on the innermost GEMM entry points, so throughput is
	// over the spans that carry them.
	fl := totals(spans, func(s span) bool { return isGemm(s) && s.FLOPs > 0 })
	if fl.dur > 0 {
		rep.set("tensor.gemm.gflops", fl.flops/fl.dur.Seconds()/1e9)
	}
	rep.set("tensor.xent.self_ms", perOpMs(totals(spans, named("loss.xent")).self, ops))
	rep.set("layers.forward.self_ms", perOpMs(totals(spans, inCat(prof.CatForward)).self, ops))
	rep.set("layers.backward.self_ms", perOpMs(totals(spans, inCat(prof.CatBackward)).self, ops))
	rep.set("optim.update_ms", perOpMs(totals(spans, inCat(prof.CatOptim)).dur, ops))
}
