package calibrate

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"xqp/internal/exec"
)

// StateVersion is the calibration snapshot format version; decoders
// reject anything else.
const StateVersion = 1

// State is the portable form of a Calibrator: everything needed to
// resume tuning after a restart. Maps are keyed by shape / family name /
// stringified worker budget; encoding/json sorts map keys, so encoded
// snapshots are deterministic and golden-testable.
type State struct {
	// Version is the snapshot format version (StateVersion).
	Version int `json:"version"`
	// Observed and Regret carry the dispatch and regret counters.
	Observed int64 `json:"observed"`
	Regret   int64 `json:"regret"`
	// Shapes holds the per-ShapeKey arm accumulators.
	Shapes map[string]ShapeState `json:"shapes,omitempty"`
	// Batch holds the batched-speed accumulator, keyed "nok". Snapshots
	// from builds that also fitted a batched join-stream factor carry a
	// "stream" entry too; it is validated and dropped on restore.
	Batch map[string]SpeedState `json:"batch,omitempty"`
	// Parallel holds the per-worker-budget degree accumulators, keyed
	// by the decimal budget.
	Parallel map[string]ParState `json:"parallel,omitempty"`
}

// ArmState is one (shape, executed strategy) accumulator.
type ArmState struct {
	// Strategy is the executed strategy's name ("nok", "twigstack", ...).
	Strategy exec.Strategy `json:"strategy"`
	// Count, EstSum and ActSum mirror the in-memory accumulator.
	Count  int64   `json:"count"`
	EstSum float64 `json:"est_sum"`
	ActSum float64 `json:"act_sum"`
}

// ShapeState is the serialized arm table of one shape, sorted by
// strategy ordinal with empty arms omitted.
type ShapeState struct {
	// Arms lists the non-empty accumulators.
	Arms []ArmState `json:"arms"`
}

// SpeedState is one batched-speed accumulator.
type SpeedState struct {
	// InterpNS/InterpWork/InterpCount sum the interpreted side;
	// BatchNS/BatchWork/BatchCount the batched side.
	InterpNS    float64 `json:"interp_ns"`
	InterpWork  float64 `json:"interp_work"`
	InterpCount int64   `json:"interp_count"`
	BatchNS     float64 `json:"batch_ns"`
	BatchWork   float64 `json:"batch_work"`
	BatchCount  int64   `json:"batch_count"`
}

// ParState is one parallel-degree accumulator.
type ParState struct {
	// Sum accumulates observed degrees over Count observations.
	Sum   float64 `json:"sum"`
	Count int64   `json:"count"`
}

// Snapshot copies the calibration state out under the read lock.
func (c *Calibrator) Snapshot() State {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := State{
		Version:  StateVersion,
		Observed: c.observed,
		Regret:   c.regret,
	}
	if len(c.shapes) > 0 {
		s.Shapes = make(map[string]ShapeState, len(c.shapes))
		for shape, ss := range c.shapes {
			var arms []ArmState
			for i := range ss.arms {
				a := &ss.arms[i]
				if a.count == 0 {
					continue
				}
				arms = append(arms, ArmState{
					Strategy: exec.Strategy(i),
					Count:    a.count,
					EstSum:   a.estSum,
					ActSum:   a.actSum,
				})
			}
			if arms != nil {
				s.Shapes[shape] = ShapeState{Arms: arms}
			}
		}
		if len(s.Shapes) == 0 {
			s.Shapes = nil
		}
	}
	if acc := &c.batchNoK; acc.interpCount > 0 || acc.batchCount > 0 {
		s.Batch = map[string]SpeedState{"nok": {
			InterpNS: acc.interpNS, InterpWork: acc.interpWork, InterpCount: acc.interpCount,
			BatchNS: acc.batchNS, BatchWork: acc.batchWork, BatchCount: acc.batchCount,
		}}
	}
	if len(c.par) > 0 {
		s.Parallel = make(map[string]ParState, len(c.par))
		for budget, pa := range c.par {
			s.Parallel[strconv.Itoa(budget)] = ParState{Sum: pa.sum, Count: pa.count}
		}
	}
	return s
}

// Encode renders a snapshot as deterministic, indented JSON.
func (s State) Encode() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// DecodeState parses and validates a calibration snapshot. Every
// numeric field must be finite and non-negative, strategies in range,
// worker-budget keys positive integers, and the version must match —
// a snapshot that fails any of these is rejected whole rather than
// silently steering the chooser with garbage.
func DecodeState(data []byte) (State, error) {
	var s State
	if err := json.Unmarshal(data, &s); err != nil {
		return State{}, fmt.Errorf("calibrate: decode state: %w", err)
	}
	if err := s.validate(); err != nil {
		return State{}, err
	}
	return s, nil
}

// validate checks the invariants DecodeState documents.
func (s State) validate() error {
	if s.Version != StateVersion {
		return fmt.Errorf("calibrate: unsupported state version %d (want %d)", s.Version, StateVersion)
	}
	if s.Observed < 0 || s.Regret < 0 {
		return fmt.Errorf("calibrate: negative counters (observed=%d regret=%d)", s.Observed, s.Regret)
	}
	for shape, ss := range s.Shapes {
		if shape == "" {
			return fmt.Errorf("calibrate: empty shape key")
		}
		seen := map[exec.Strategy]bool{}
		for _, a := range ss.Arms {
			if a.Strategy <= exec.StrategyAuto || a.Strategy >= exec.NumStrategies {
				return fmt.Errorf("calibrate: shape %q: arm strategy %d out of range", shape, a.Strategy)
			}
			if seen[a.Strategy] {
				return fmt.Errorf("calibrate: shape %q: duplicate arm for %s", shape, a.Strategy)
			}
			seen[a.Strategy] = true
			if a.Count < 0 {
				return fmt.Errorf("calibrate: shape %q arm %s: negative count", shape, a.Strategy)
			}
			if !finiteNonNeg(a.EstSum) || !finiteNonNeg(a.ActSum) {
				return fmt.Errorf("calibrate: shape %q arm %s: non-finite or negative sums", shape, a.Strategy)
			}
		}
	}
	for name, acc := range s.Batch {
		if name != "nok" && name != "stream" {
			return fmt.Errorf("calibrate: unknown batch family %q", name)
		}
		if acc.InterpCount < 0 || acc.BatchCount < 0 {
			return fmt.Errorf("calibrate: batch family %q: negative counts", name)
		}
		for _, v := range []float64{acc.InterpNS, acc.InterpWork, acc.BatchNS, acc.BatchWork} {
			if !finiteNonNeg(v) {
				return fmt.Errorf("calibrate: batch family %q: non-finite or negative sums", name)
			}
		}
	}
	for key, pa := range s.Parallel {
		budget, err := strconv.Atoi(key)
		if err != nil || budget < 2 || budget > exec.MaxParallelism {
			return fmt.Errorf("calibrate: parallel budget key %q out of range", key)
		}
		if pa.Count < 0 || !finiteNonNeg(pa.Sum) {
			return fmt.Errorf("calibrate: parallel budget %q: non-finite or negative accumulator", key)
		}
		if pa.Count > 0 && pa.Sum > float64(budget)*float64(pa.Count) {
			return fmt.Errorf("calibrate: parallel budget %q: mean degree above budget", key)
		}
	}
	return nil
}

func finiteNonNeg(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// Restore replaces the calibration state with a validated snapshot
// (invalid snapshots leave the current state untouched).
func (c *Calibrator) Restore(s State) error {
	if err := s.validate(); err != nil {
		return err
	}
	shapes := map[string]*shapeStats{}
	for shape, stateShape := range s.Shapes {
		ss := &shapeStats{}
		for _, a := range stateShape.Arms {
			ss.arms[a.Strategy] = armStats{count: a.Count, estSum: a.EstSum, actSum: a.ActSum}
		}
		shapes[shape] = ss
	}
	par := map[int]*parAcc{}
	for key, pa := range s.Parallel {
		budget, _ := strconv.Atoi(key) // validated above
		par[budget] = &parAcc{sum: pa.Sum, count: pa.Count}
	}
	nokSpeed := s.Batch["nok"] // a "stream" family has no accumulator left
	batchNoK := speedAcc{
		interpNS: nokSpeed.InterpNS, interpWork: nokSpeed.InterpWork, interpCount: nokSpeed.InterpCount,
		batchNS: nokSpeed.BatchNS, batchWork: nokSpeed.BatchWork, batchCount: nokSpeed.BatchCount,
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.observed = s.Observed
	c.regret = s.Regret
	c.shapes = shapes
	c.par = par
	c.batchNoK = batchNoK
	return nil
}

// MarshalJSON keeps ShapeState deterministic: arms are emitted in
// strategy order regardless of how the state was built.
func (ss ShapeState) MarshalJSON() ([]byte, error) {
	arms := append([]ArmState(nil), ss.Arms...)
	sort.Slice(arms, func(i, j int) bool { return arms[i].Strategy < arms[j].Strategy })
	type bare ShapeState
	return json.Marshal(bare{Arms: arms})
}
