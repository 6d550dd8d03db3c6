package experiments

import (
	"fmt"
	"math/rand"

	"modelslicing/internal/data"
	"modelslicing/internal/models"
	"modelslicing/internal/nn"
	"modelslicing/internal/slicing"
	"modelslicing/internal/train"
)

// Table4Large reproduces the ImageNet block of Table 4 (VGG-16 and
// ResNet-50 rows) on the ImageNet-like synthetic task: for each family, a
// model-slicing network with lb = 0.25 against independently trained fixed
// models at widths 1.0 / 0.75 / 0.5 / 0.25 — the paper's claim being that at
// rate 0.25 the sliced subnet matches the fixed model at ~6.25% of the
// compute (~16× speedup).
func Table4Large(scale Scale, seed int64) *Table {
	sz := cnnSizingFor(scale)
	// The larger task: more classes, bigger images, the paper's lb = 0.25.
	imgCfg := data.ImageNetLike(sz.TrainN, sz.TestN)
	imgCfg.Classes = 12
	imgCfg.H, imgCfg.W = sz.HW+4, sz.HW+4
	imgCfg.Noise, imgCfg.SharedWeight = sz.Noise, sz.Shared
	d := data.GenerateImages(imgCfg)
	test := d.TestBatches(64)
	rates := slicing.NewRateList(0.25, 4)

	tab := &Table{
		Title:  fmt.Sprintf("Table 4 (large) — ImageNet-like task (%v scale)", scale),
		Header: []string{"row", "metric", "r=1.0", "r=0.75", "r=0.5", "r=0.25"},
	}
	cols := []float64{1.0, 0.75, 0.5, 0.25}

	type family struct {
		name  string
		build func(groups int, norm models.Norm, widths int) (*models.VGGConfig, *models.ResNetConfig)
	}
	families := []family{
		{"VGG-16-mini", func(g int, n models.Norm, w int) (*models.VGGConfig, *models.ResNetConfig) {
			cfg := models.VGG13Mini(g, n, w)
			cfg.Name = "VGG-16-mini"
			cfg.InputHW = imgCfg.H
			cfg.Classes = imgCfg.Classes
			return &cfg, nil
		}},
		{"ResNet-50-mini", func(g int, n models.Norm, w int) (*models.VGGConfig, *models.ResNetConfig) {
			cfg := models.ResNetMiniWide(g, n, w)
			cfg.Name = "ResNet-50-mini"
			cfg.InputHW = imgCfg.H
			cfg.Classes = imgCfg.Classes
			return nil, &cfg
		}},
	}
	for _, fam := range families {
		rng := rand.New(rand.NewSource(seed))
		// Slicing arm.
		vc, rc := fam.build(4, models.NormGroup, len(rates))
		sliced := buildFamily(vc, rc, rng)
		trainCNN(sliced, rates, slicing.NewRMinMax(rates), d, sz, rng, nil)
		slicedRow := []string{fam.name + "-lb-0.25", "acc %"}
		ctRow := []string{fam.name, "Ct %"}
		inShape := []int{imgCfg.Channels, imgCfg.H, imgCfg.W}
		fullMACs := costAt(sliced, inShape, 1)
		for _, r := range cols {
			ctRow = append(ctRow, f2(100*float64(costAt(sliced, inShape, r))/float64(fullMACs)))
			slicedRow = append(slicedRow, f2(100*train.Evaluate(sliced, r, rates.WidthIdx(r), test).Accuracy))
		}
		// Fixed arm.
		fixedRow := []string{fam.name + "-fixed-models", "acc %"}
		for _, r := range cols {
			num, den := rateFrac(r, 4)
			fvc, frc := fam.build(1, models.NormGroup, 1)
			fixedModel := buildScaledFamily(fvc, frc, num, den, rng)
			trainFixedCNN(fixedModel, d, sz, rng)
			fixedRow = append(fixedRow, f2(100*train.Evaluate(fixedModel, 1, 0, test).Accuracy))
		}
		tab.Rows = append(tab.Rows, ctRow, fixedRow, slicedRow)
	}
	tab.Notes = append(tab.Notes,
		"paper (ImageNet): VGG-16 fixed 72.47/70.73/66.31/54.14 vs lb-0.25 72.53/70.69/66.41/54.20; ResNet-50 fixed 76.05/74.73/72.02/63.91 vs lb-0.25 76.08/74.65/71.97/63.98",
		"shape: the sliced subnet matches the equal-width fixed model at every rate, at 6.25% compute for r=0.25")
	return tab
}

func buildFamily(vc *models.VGGConfig, rc *models.ResNetConfig, rng *rand.Rand) *nn.Sequential {
	if vc != nil {
		m, _ := models.NewVGG(*vc, rng)
		return m
	}
	m, _ := models.NewResNet(*rc, rng)
	return m
}

func buildScaledFamily(vc *models.VGGConfig, rc *models.ResNetConfig, num, den int, rng *rand.Rand) *nn.Sequential {
	if vc != nil {
		m, _ := models.NewVGG(vc.ScaleWidths(num, den), rng)
		return m
	}
	m, _ := models.NewResNet(rc.ScaleWidths(num, den), rng)
	return m
}
