package persist

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"modelslicing/internal/faults"
	"modelslicing/internal/models"
	"modelslicing/internal/nn"
	"modelslicing/internal/tensor"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := models.NewMLP(8, []int{16}, 4, 4, rng)
	path := filepath.Join(t.TempDir(), "ckpt.bin")
	if err := Save(path, src.Params()); err != nil {
		t.Fatal(err)
	}
	dst := models.NewMLP(8, []int{16}, 4, 4, rand.New(rand.NewSource(99)))
	if err := Load(path, dst.Params()); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 8)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	want := src.Forward(nn.Eval(1), x)
	got := dst.Forward(nn.Eval(1), x)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatal("loaded model differs from saved model")
		}
	}
}

func TestLoadRejectsWrongArchitecture(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := models.NewMLP(8, []int{16}, 4, 4, rng)
	path := filepath.Join(t.TempDir(), "ckpt.bin")
	if err := Save(path, src.Params()); err != nil {
		t.Fatal(err)
	}
	other := models.NewMLP(8, []int{32}, 4, 4, rng)
	if err := Load(path, other.Params()); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
	fewer := models.NewMLP(8, []int{16, 16}, 4, 4, rng)
	if err := Load(path, fewer.Params()); err == nil {
		t.Fatal("expected param-count error")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.bin")
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	m := models.NewMLP(8, []int{16}, 4, 4, rng)
	if err := Load(path, m.Params()); err == nil {
		t.Fatal("expected magic-mismatch error")
	}
}

// params returns a fresh model's parameter list with a deterministic seed.
func testModel(seed int64) []*nn.Param {
	return models.NewMLP(8, []int{16}, 4, 4, rand.New(rand.NewSource(seed))).Params()
}

func TestLoadRejectsEveryTruncation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.bin")
	if err := Save(path, testModel(4)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A checkpoint cut at any byte offset — the torn writes a non-atomic
	// save could leave behind — must refuse to load. Stride keeps the sweep
	// fast; the first and last few bytes are covered exactly.
	cut := filepath.Join(dir, "cut.bin")
	offsets := []int{0, 1, 7, 8, 11, len(raw) - 5, len(raw) - 1}
	for off := 16; off < len(raw)-8; off += 97 {
		offsets = append(offsets, off)
	}
	for _, off := range offsets {
		if err := os.WriteFile(cut, raw[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := Load(cut, testModel(5)); err == nil {
			t.Fatalf("checkpoint truncated at %d/%d bytes loaded without error", off, len(raw))
		}
	}
}

func TestLoadRejectsBitFlips(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.bin")
	if err := Save(path, testModel(6)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := filepath.Join(dir, "flipped.bin")
	for _, off := range []int{0, len(magicV3) + 2, len(raw) / 2, len(raw) - 2} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x40
		if err := os.WriteFile(flipped, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := Load(flipped, testModel(7)); err == nil {
			t.Fatalf("checkpoint with byte %d flipped loaded without error", off)
		}
	}
}

func TestSaveIsAtomicUnderCrashDebris(t *testing.T) {
	// Simulate a crash mid-save: a stray partial temp file next to a good
	// checkpoint. The real path must still load the old model bit-for-bit,
	// and a subsequent Save must succeed and replace it cleanly.
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.bin")
	src := testModel(8)
	if err := Save(path, src); err != nil {
		t.Fatal(err)
	}
	debris := filepath.Join(dir, ".ckpt.bin.tmp-12345")
	if err := os.WriteFile(debris, []byte(magicV3+"torn"), 0o600); err != nil {
		t.Fatal(err)
	}
	dst := testModel(9)
	if err := Load(path, dst); err != nil {
		t.Fatalf("good checkpoint failed to load beside crash debris: %v", err)
	}
	if !sameBits(src, dst) {
		t.Fatal("loaded params differ from saved params")
	}
	if err := Save(path, testModel(10)); err != nil {
		t.Fatalf("re-save beside crash debris: %v", err)
	}
}

func TestDiskErrorFaultInjection(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.bin")
	src := testModel(13)
	if err := Save(path, src); err != nil {
		t.Fatal(err)
	}
	if err := faults.Enable(faults.DiskError, "on"); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, src); err == nil {
		t.Fatal("Save under disk-error fault succeeded")
	}
	if err := Load(path, testModel(14)); err == nil {
		t.Fatal("Load under disk-error fault succeeded")
	}
	if got := faults.Fired(faults.DiskError); got != 2 {
		t.Fatalf("disk-error fired %d times, want 2", got)
	}
	faults.Reset()
	// The injected failures left the real checkpoint untouched.
	if err := Load(path, testModel(15)); err != nil {
		t.Fatalf("checkpoint damaged by injected-fault Save: %v", err)
	}
}
