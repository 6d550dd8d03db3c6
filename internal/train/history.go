package train

// History records per-epoch evaluation at a set of slice rates, backing the
// learning-curve reproduction (Figure 7) and the γ-evolution heat map
// (Figure 6).
type History struct {
	Rates  []float64
	Epochs []EpochRecord
}

// EpochRecord is the evaluation snapshot of one epoch.
type EpochRecord struct {
	Epoch     int
	TrainLoss float64
	// PerRate holds one evaluation per rate in History.Rates order.
	PerRate []EvalResult
	// GammaGroups optionally records per-layer γ group means (Figure 6);
	// keyed by a caller-chosen layer label.
	GammaGroups map[string][]float64
}

// NewHistory constructs a history for the given evaluation rates.
func NewHistory(rates []float64) *History {
	return &History{Rates: append([]float64(nil), rates...)}
}

// Append adds an epoch record.
func (h *History) Append(rec EpochRecord) { h.Epochs = append(h.Epochs, rec) }
