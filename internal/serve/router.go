package serve

import (
	"fmt"
	"math"
	"time"

	"tbd/internal/tensor"
)

// Router: replica selection and deadline-aware admission.
//
// For each replica the router estimates time-to-completion of a newly
// admitted request as
//
//	wait(r) = ceil((queued+1) / MaxBatch) * batchP50(r)
//
// where queued is the replica's live depth (queue residents plus the
// in-flight batch) and batchP50 is the recent median forward time from
// the replica's rotating window — a control signal that tracks current
// load rather than the lifetime average. Requests are placed on the
// feasible replica with the smallest estimate; replicas whose recent p99
// is already blowing the fleet SLO get their estimate penalized so
// traffic drains away from them before they melt.
//
// Admission outcomes are deliberately distinct:
//   - ErrDeadline: no replica could meet the request's budget even with
//     an empty slot (shed-before-queueing; the 503 "back off" signal).
//   - ErrOverloaded: at least one replica was feasible but every feasible
//     queue was full (the 429 "retry elsewhere/now" signal).

// Predict routes one sample through the fleet with the fleet's default
// SLO budget (none when FleetConfig.SLO is 0). It blocks until the
// result is ready or the request is shed.
func (f *Fleet) Predict(x *tensor.Tensor) (Result, error) {
	return f.PredictSLO(x, f.cfg.SLO)
}

// PredictSLO is Predict with an explicit latency budget for this request.
// budget <= 0 means no deadline: the request is never shed for SLO
// reasons, only for queue overflow.
func (f *Fleet) PredictSLO(x *tensor.Tensor, budget time.Duration) (Result, error) {
	primary := f.replicas[0].sess.Load()
	if x == nil || x.Numel() != primary.sampleLen {
		got := 0
		if x != nil {
			got = x.Numel()
		}
		return Result{}, fmt.Errorf("serve: sample has %d elements, want %d (shape %v)",
			got, primary.sampleLen, primary.sampleShape)
	}
	f.admitMu.RLock()
	if f.closing.Load() {
		f.admitMu.RUnlock()
		f.rejShutdown.Add(1)
		return Result{}, ErrShuttingDown
	}
	now := time.Now()
	req := &request{x: x, enq: now, resp: make(chan response, 1)}
	if budget > 0 {
		req.deadline = now.Add(budget)
	}
	r, err := f.route(req, budget)
	f.admitMu.RUnlock()
	if err != nil {
		return Result{}, err
	}
	r.stats.accept()
	resp := <-req.resp
	return resp.res, resp.err
}

// route places req on the best feasible replica, trying candidates in
// ascending estimated-wait order until an enqueue succeeds.
func (f *Fleet) route(req *request, budget time.Duration) (*replica, error) {
	n := len(f.replicas)
	score := make([]float64, n)
	open := make([]bool, n) // feasible and not yet tried
	sloSec := f.cfg.SLO.Seconds()
	budgetSec := budget.Seconds()
	anyFeasible := false
	for i, r := range f.replicas {
		bt := math.Float64frombits(r.batchP50.Load())
		depth := float64(r.queued.Load() + 1)
		wait := math.Ceil(depth/float64(f.cfg.MaxBatch)) * bt
		// Feasible if the request could start and finish inside its
		// budget; with no batch-time signal yet (cold replica) assume yes.
		if budget > 0 && wait+bt > budgetSec {
			continue
		}
		anyFeasible = true
		open[i] = true
		score[i] = wait
		if sloSec > 0 {
			if p99 := math.Float64frombits(r.recentP99.Load()); p99 > sloSec {
				score[i] += p99 // hot replica: push new traffic elsewhere
			}
		}
	}
	if !anyFeasible {
		f.rejDeadline.Add(1)
		return nil, ErrDeadline
	}
	base := int(f.rr.Add(1) % uint64(n))
	for {
		// Scan from a rotating base so exact ties round-robin across
		// replicas instead of always landing on the lowest index.
		best := -1
		for k := 0; k < n; k++ {
			i := (base + k) % n
			if open[i] && (best < 0 || score[i] < score[best]) {
				best = i
			}
		}
		if best < 0 {
			f.rejOverload.Add(1)
			return nil, ErrOverloaded
		}
		open[best] = false
		r := f.replicas[best]
		select {
		case r.queue <- req:
			r.queued.Add(1)
			return r, nil
		default:
			// Queue full; fall through to the next-best candidate.
		}
	}
}
