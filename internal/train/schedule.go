package train

// StepDecay divides the base learning rate by Gamma at each milestone epoch,
// the schedule the paper uses for CIFAR (÷10 at 50% and 75%) and ImageNet
// (÷10 at 30%, 60%, 90%).
type StepDecay struct {
	Base       float64
	Gamma      float64
	Milestones []int
}

// NewStepDecay builds a step-decay schedule; gamma is the divisor (e.g. 10).
func NewStepDecay(base, gamma float64, milestones ...int) *StepDecay {
	return &StepDecay{Base: base, Gamma: gamma, Milestones: milestones}
}

// MilestonesAt converts fractional positions (e.g. 0.5, 0.75) of a total
// epoch budget into absolute milestone epochs.
func MilestonesAt(total int, fracs ...float64) []int {
	ms := make([]int, len(fracs))
	for i, f := range fracs {
		ms[i] = int(f * float64(total))
	}
	return ms
}

// LR returns the learning rate for the given epoch.
func (s *StepDecay) LR(epoch int) float64 {
	lr := s.Base
	for _, m := range s.Milestones {
		if epoch >= m {
			lr /= s.Gamma
		}
	}
	return lr
}

// AdaptiveDecay implements the NNLM schedule of the paper: the learning rate
// is divided by Factor whenever validation perplexity fails to improve.
type AdaptiveDecay struct {
	LRValue float64
	Factor  float64
	best    float64
	started bool
}

// NewAdaptiveDecay constructs the schedule (the paper quarters the rate).
func NewAdaptiveDecay(base, factor float64) *AdaptiveDecay {
	return &AdaptiveDecay{LRValue: base, Factor: factor}
}

// Observe reports a new validation metric (lower is better); the learning
// rate decays when the metric did not improve.
func (a *AdaptiveDecay) Observe(metric float64) {
	if a.started && metric >= a.best {
		a.LRValue /= a.Factor
	}
	if !a.started || metric < a.best {
		a.best = metric
	}
	a.started = true
}

// LR returns the current learning rate (the epoch argument is ignored).
func (a *AdaptiveDecay) LR(int) float64 { return a.LRValue }
