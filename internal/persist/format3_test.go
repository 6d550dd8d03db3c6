package persist

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"modelslicing/internal/models"
	"modelslicing/internal/nn"
	"modelslicing/internal/tensor"
)

func TestOpenBindServesSavedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	src := models.NewMLP(8, []int{16}, 4, 4, rng)
	path := filepath.Join(t.TempDir(), "ckpt.bin")
	if err := SaveEpoch(path, src.Params(), 42); err != nil {
		t.Fatal(err)
	}
	ck, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	if ck.Epoch != 42 {
		t.Fatalf("Epoch = %d, want 42", ck.Epoch)
	}
	if ck.CRC == 0 {
		t.Fatal("checkpoint CRC is zero")
	}
	if err := ck.Verify(); err != nil {
		t.Fatal(err)
	}
	dst := models.NewMLP(8, []int{16}, 4, 4, rand.New(rand.NewSource(99)))
	if err := ck.Bind(dst.Params()); err != nil {
		t.Fatal(err)
	}
	for _, p := range dst.Params() {
		if !p.Foreign {
			t.Fatalf("param %q not marked Foreign after Bind", p.Name)
		}
	}
	x := tensor.New(2, 8)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	want := src.Forward(nn.Eval(1), x)
	got := dst.Forward(nn.Eval(1), x)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatal("mmap-bound model differs from saved model")
		}
	}
}

// legacyImage hand-builds a pre-v3 checkpoint: the magic, a param count,
// then per param its name, rank, dims and raw floats. "MSLC0002" files added
// a CRC32 trailer over all of that; "MSLC0001" files had none.
func legacyImage(magic string, params []*nn.Param) []byte {
	var e encBuf
	e.b = append(e.b, magic...)
	e.u32(uint32(len(params)))
	for _, p := range params {
		e.str(p.Name)
		e.u32(uint32(len(p.Value.Shape)))
		for _, d := range p.Value.Shape {
			e.u32(uint32(d))
		}
		e.floats(p.Value.Data)
	}
	if magic == "MSLC0002" {
		e.u32(crc32.ChecksumIEEE(e.b))
	}
	return e.b
}

// TestOpenRejectsLegacyAndGarbage: v3 is the only format, so Open and Load
// refuse pre-v3 checkpoints the same way they refuse any other file.
func TestOpenRejectsLegacyAndGarbage(t *testing.T) {
	dir := t.TempDir()
	for name, img := range map[string][]byte{
		"v1":   legacyImage("MSLC0001", testModel(21)),
		"v2":   legacyImage("MSLC0002", testModel(21)),
		"junk": []byte("not a checkpoint at all"),
	} {
		path := filepath.Join(dir, name+".bin")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		if ck, err := Open(path); err == nil {
			ck.Close()
			t.Fatalf("Open(%s) succeeded", name)
		}
		if err := Load(path, testModel(22)); err == nil {
			t.Fatalf("Load(%s) succeeded", name)
		}
	}
}

// v3Bytes is the image Save writes for params.
func v3Bytes(params []*nn.Param) []byte {
	var e encBuf
	encodeV3(&e, params, 0)
	return e.b
}

// sameBits reports whether two models hold bit-identical weights.
func sameBits(a, b []*nn.Param) bool {
	for i, p := range a {
		for j, v := range p.Value.Data {
			if math.Float64bits(v) != math.Float64bits(b[i].Value.Data[j]) {
				return false
			}
		}
	}
	return true
}

// TestLoadRejectionLeavesModelUntouched fails Load every way it can fail on
// a model bound with Open+Bind: afterwards every weight must be bit-identical
// and still served from the mapping.
func TestLoadRejectionLeavesModelUntouched(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.bin")
	if err := Save(good, testModel(40)); err != nil {
		t.Fatal(err)
	}
	raw := v3Bytes(testModel(40))
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-2] ^= 0x40
	// A v1 image whose first param matches the model and whose second does
	// not: a loader that copies as it checks has already written param 0.
	v1 := testModel(41)
	shape := append([]int(nil), v1[1].Value.Shape...)
	shape[0]++
	v1[1] = &nn.Param{Name: v1[1].Name, Value: tensor.New(shape...)}

	ck, err := Open(good)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	m := testModel(42)
	if err := ck.Bind(m); err != nil {
		t.Fatal(err)
	}
	for name, img := range map[string][]byte{
		"wrong architecture": v3Bytes(models.NewMLP(8, []int{32}, 4, 4, rand.New(rand.NewSource(43))).Params()),
		"truncated":          raw[:len(raw)-1],
		"bit flip":           flipped,
		"garbage":            append([]byte("MSLCXXXX"), raw[len(magicV3):]...),
		"v1 shape":           legacyImage("MSLC0001", v1),
	} {
		bad := filepath.Join(dir, "bad.bin")
		if err := os.WriteFile(bad, img, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := Load(bad, m); err == nil {
			t.Fatalf("%s: Load succeeded", name)
		}
		for _, p := range m {
			if !p.Foreign {
				t.Fatalf("%s: param %q detached from the mapping by a rejected Load", name, p.Name)
			}
		}
		if !sameBits(m, testModel(40)) {
			t.Fatalf("%s: weights changed by a rejected Load", name)
		}
	}
}

// TestBindAfterCloseFails: a closed Checkpoint no longer maps its pages, so
// Bind and Verify must refuse it rather than alias or read them.
func TestBindAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.bin")
	if err := Save(path, testModel(44)); err != nil {
		t.Fatal(err)
	}
	ck, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	m := testModel(45)
	if err := ck.Bind(m); err == nil {
		t.Fatal("Bind on a closed checkpoint succeeded")
	}
	if err := ck.Verify(); err == nil {
		t.Fatal("Verify on a closed checkpoint succeeded")
	}
	for _, p := range m {
		if p.Foreign {
			t.Fatalf("param %q bound by a failed Bind", p.Name)
		}
	}
	if !sameBits(m, testModel(45)) {
		t.Fatal("weights changed by a failed Bind")
	}
}

func TestBindRejectsWrongArchitecture(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.bin")
	if err := Save(path, testModel(22)); err != nil {
		t.Fatal(err)
	}
	ck, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	rng := rand.New(rand.NewSource(23))
	if err := ck.Bind(models.NewMLP(8, []int{32}, 4, 4, rng).Params()); err == nil {
		t.Fatal("Bind accepted a wrong-width model")
	}
	wrong := models.NewMLP(8, []int{32}, 4, 4, rng).Params()
	if err := ck.Bind(wrong); err == nil {
		t.Fatal("Bind accepted a wrong model")
	}
	// The failed Bind must not have half-bound the model.
	for _, p := range wrong {
		if p.Foreign {
			t.Fatalf("param %q left Foreign by a failed Bind", p.Name)
		}
	}
	if err := ck.Bind(models.NewMLP(8, []int{16, 16}, 4, 4, rng).Params()); err == nil {
		t.Fatal("Bind accepted a wrong-depth model")
	}
}

// TestOpenRejectsTornAtEverySectionBoundary truncates a v3 checkpoint at
// each section's start and end (and one byte either side): every cut must be
// refused by Open/Verify and by the parse-copy Load.
func TestOpenRejectsTornAtEverySectionBoundary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.bin")
	if err := Save(path, testModel(28)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var cuts []int
	for _, s := range ck.sections {
		for _, off := range []int{int(s.off) - 1, int(s.off), int(s.off) + 1, int(s.off+s.length) - 1, int(s.off + s.length)} {
			if off > 0 && off < len(raw) {
				cuts = append(cuts, off)
			}
		}
	}
	ck.Close()
	torn := filepath.Join(dir, "torn.bin")
	for _, off := range cuts {
		if err := os.WriteFile(torn, raw[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		if c, err := Open(torn); err == nil {
			verr := c.Verify()
			c.Close()
			if verr == nil {
				t.Fatalf("v3 torn at %d/%d opened and verified", off, len(raw))
			}
		}
		if err := Load(torn, testModel(29)); err == nil {
			t.Fatalf("v3 torn at %d/%d loaded without error", off, len(raw))
		}
	}
}

// TestVerifyRejectsBitFlipAtEverySectionBoundary flips a byte at each
// section's first and last payload byte, in the inter-section padding, and in
// the header: Verify (after a succeeding Open, when the header still parses)
// and Load must reject every one.
func TestVerifyRejectsBitFlipAtEverySectionBoundary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.bin")
	if err := Save(path, testModel(30)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	flips := []int{0, len(magicV3) + 3, len(magicV3) + 12} // magic, hdrLen, header body
	prevEnd := int(ck.headerEnd())
	for _, s := range ck.sections {
		if int(s.off) > prevEnd {
			flips = append(flips, prevEnd) // padding byte before the section
		}
		flips = append(flips, int(s.off), int(s.off+s.length)-1)
		prevEnd = int(s.off + s.length)
	}
	ck.Close()
	flipped := filepath.Join(dir, "flipped.bin")
	for _, off := range flips {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x40
		if err := os.WriteFile(flipped, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if c, err := Open(flipped); err == nil {
			verr := c.Verify()
			c.Close()
			if verr == nil {
				t.Fatalf("v3 with byte %d flipped opened and verified", off)
			}
		}
		if err := Load(flipped, testModel(31)); err == nil {
			t.Fatalf("v3 with byte %d flipped loaded without error", off)
		}
	}
}

// rawSection is one hand-written entry of a v3 section table.
type rawSection struct {
	name        string
	dims        []uint32
	off, length uint64
}

// v3Image assembles a v3 file around a hand-written section table — what a
// buggy or hostile writer could produce — with a valid header CRC, zero
// padded to size bytes. Payload CRCs are 0, the CRC of an empty payload.
func v3Image(secs []rawSection, size int) []byte {
	var e encBuf
	e.b = append(e.b, magicV3...)
	e.u64(0) // hdrLen, patched below
	e.u64(0) // epoch
	e.u32(uint32(len(secs)))
	for _, s := range secs {
		e.str(s.name)
		e.u32(sectionKindF64)
		e.u32(uint32(len(s.dims)))
		for _, d := range s.dims {
			e.u32(d)
		}
		e.u64(s.off)
		e.u64(s.length)
		e.u32(0)
	}
	binary.LittleEndian.PutUint64(e.b[len(magicV3):], uint64(len(e.b)-len(magicV3)-8))
	e.u32(crc32.ChecksumIEEE(e.b))
	e.padTo(size)
	return e.b
}

// TestParseV3RejectsWrappingSectionTable feeds the parser section tables
// whose size arithmetic wraps, under a valid header CRC so only the bounds
// checks stand in the way: a [2²⁸, 2²⁸, 32] shape whose 2⁶¹ elements times 8
// wrap to the recorded length 0, and an offset whose sum with its length
// wraps back inside the file.
func TestParseV3RejectsWrappingSectionTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		img  []byte
	}{
		{"element count overflows", v3Image([]rawSection{{"w", []uint32{1 << 28, 1 << 28, 32}, 128, 0}}, 128)},
		{"offset+length wraps", v3Image([]rawSection{
			{"a", []uint32{8}, ^uint64(sectionAlign - 1), 64},
			{"b", []uint32{8}, 128, 64},
		}, 192)},
	} {
		if ck, err := parseV3(tc.img, tc.name); err == nil {
			t.Fatalf("%s: parseV3 accepted a %d-section table %+v", tc.name, len(ck.sections), ck.sections)
		}
		if err := loadImage(tc.img, tc.name, testModel(37)); err == nil {
			t.Fatalf("%s: loadImage accepted the image", tc.name)
		}
	}
}

// FuzzParseV3 throws arbitrary bytes at the checkpoint header parser. Any
// input that carries the v3 magic and a hdrLen that fits gets its header CRC
// rewritten, so mutations reach the section table instead of dying at the
// checksum. Whatever parseV3 accepts must be a sound layout, and neither
// Verify nor Load's loadImage may panic on it.
func FuzzParseV3(f *testing.F) {
	// A two-section model keeps the seed image near 200 bytes: the fuzzer
	// minimizes every new input in time quadratic in its length.
	model := []*nn.Param{
		{Name: "w", Value: tensor.FromSlice([]float64{1, -2, 3, -4, 5, -6}, 3, 2)},
		{Name: "b", Value: tensor.FromSlice([]float64{0.5, -0.25, 0.125}, 3)},
	}
	var e encBuf
	encodeV3(&e, model, 3)
	for _, n := range []int{len(e.b), len(e.b) - 1, len(e.b) / 2, len(magicV3) + 12, len(magicV3), 0} {
		f.Add(append([]byte(nil), e.b[:n]...))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		data := append([]byte(nil), in...)
		var hdrEnd uint64
		if len(data) >= len(magicV3)+8 && string(data[:len(magicV3)]) == magicV3 {
			hdrLen := binary.LittleEndian.Uint64(data[len(magicV3):])
			hdrEnd = uint64(len(magicV3)) + 8 + hdrLen
			if hdrLen <= uint64(len(data)) && hdrEnd+4 <= uint64(len(data)) {
				binary.LittleEndian.PutUint32(data[hdrEnd:], crc32.ChecksumIEEE(data[:hdrEnd]))
			}
		}
		ck, err := parseV3(data, "fuzz")
		if err != nil {
			return
		}
		size := uint64(len(data))
		prevEnd := hdrEnd + 4
		for _, s := range ck.sections {
			elems := uint64(1)
			for _, d := range s.shape {
				if d <= 0 || elems > size/8/uint64(d) {
					t.Fatalf("section %q: shape %v exceeds a %d-byte file", s.name, s.shape, size)
				}
				elems *= uint64(d)
			}
			switch {
			case s.off%sectionAlign != 0:
				t.Fatalf("section %q: offset %d not %d-byte aligned", s.name, s.off, sectionAlign)
			case s.off < prevEnd:
				t.Fatalf("section %q: offset %d before the previous end %d", s.name, s.off, prevEnd)
			case s.length != 8*elems:
				t.Fatalf("section %q: length %d for shape %v", s.name, s.length, s.shape)
			case s.off > size || s.length > size-s.off:
				t.Fatalf("section %q: [%d, +%d) past the %d-byte file", s.name, s.off, s.length, size)
			}
			prevEnd = s.off + s.length
		}
		_ = ck.Verify()
		_ = loadImage(data, "fuzz", model)
	})
}

func TestLoadIntoForeignModelCopiesOnWrite(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.bin")
	b := filepath.Join(dir, "b.bin")
	if err := Save(a, testModel(32)); err != nil {
		t.Fatal(err)
	}
	if err := Save(b, testModel(33)); err != nil {
		t.Fatal(err)
	}
	ck, err := Open(a)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	m := testModel(34)
	if err := ck.Bind(m); err != nil {
		t.Fatal(err)
	}
	// Loading different weights into a model bound over a read-only mapping
	// must detach the params (writing through the mapping would fault).
	if err := Load(b, m); err != nil {
		t.Fatal(err)
	}
	for _, p := range m {
		if p.Foreign {
			t.Fatalf("param %q still Foreign after Load", p.Name)
		}
	}
	if !sameBits(m, testModel(33)) {
		t.Fatal("Load into bound model produced wrong weights")
	}
}

// TestSaveOverLiveMappingKeepsServedModel overwrites a served checkpoint
// with Save while a model is bound to its mapping. Save renames a new file
// into place, so the old inode — and the mapping over it — lives on: the
// bound params stay Foreign with the old bits, every rate serves the same
// outputs, and the old Checkpoint still verifies, while a fresh Open sees
// the new model. A rewrite in place would instead change or, once
// truncated, SIGBUS the served pages (DESIGN §15).
func TestSaveOverLiveMappingKeepsServedModel(t *testing.T) {
	cfg := models.VGG13Mini(4, models.NormGroup, 1)
	modelA, _ := models.NewVGG(cfg, rand.New(rand.NewSource(41)))
	modelB, _ := models.NewVGG(cfg, rand.New(rand.NewSource(42)))
	dir := t.TempDir()
	path := filepath.Join(dir, "served.bin")
	if err := Save(path, modelA.Params()); err != nil {
		t.Fatal(err)
	}
	ck, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	served, _ := models.NewVGG(cfg, rand.New(rand.NewSource(43)))
	if err := ck.Bind(served.Params()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(44))
	x := tensor.New(2, 3, 16, 16)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	rates := []float64{0.25, 0.5, 0.75, 1}
	before := make([][]float64, len(rates))
	for i, r := range rates {
		before[i] = append([]float64(nil), nn.Infer(served, nn.Eval(r), x).Data...)
	}

	if err := Save(path, modelB.Params()); err != nil {
		t.Fatal(err)
	}

	for _, p := range served.Params() {
		if !p.Foreign {
			t.Fatalf("param %q no longer Foreign after the overwrite", p.Name)
		}
	}
	if !sameBits(served.Params(), modelA.Params()) {
		t.Fatal("bound params changed when the checkpoint was overwritten")
	}
	for i, r := range rates {
		got := nn.Infer(served, nn.Eval(r), x).Data
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(before[i][j]) {
				t.Fatalf("r=%v out[%d] = %v after the overwrite, %v before", r, j, got[j], before[i][j])
			}
		}
	}
	if err := ck.Verify(); err != nil {
		t.Fatalf("old checkpoint no longer verifies: %v", err)
	}

	pathB := filepath.Join(dir, "b.bin")
	if err := Save(pathB, modelB.Params()); err != nil {
		t.Fatal(err)
	}
	ckB, err := Open(pathB)
	if err != nil {
		t.Fatal(err)
	}
	defer ckB.Close()
	fresh, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if fresh.CRC != ckB.CRC || fresh.CRC == ck.CRC {
		t.Fatalf("fresh Open reports CRC %08x, want B's %08x (A's was %08x)", fresh.CRC, ckB.CRC, ck.CRC)
	}
}

// TestSaveSteadyStateAllocs is the satellite regression test: once the
// encoder pool is warm, periodic saves must not allocate proportionally to
// the parameter count (the old writer built the whole payload through
// binary.Write each epoch).
func TestSaveSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race (sync.Pool sheds items)")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.bin")
	small := testModel(35)
	big := models.NewMLP(8, []int{256, 256}, 4, 4, rand.New(rand.NewSource(36))).Params()
	run := func(params []*nn.Param) float64 {
		// Warm the pool (and grow its buffer) outside the measurement.
		if err := Save(path, params); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if err := Save(path, params); err != nil {
				t.Fatal(err)
			}
		})
	}
	smallAllocs := run(small)
	bigAllocs := run(big)
	// The fixed overhead (temp file, name strings, errors plumbing) is fine;
	// what must not happen is allocations scaling with parameter bytes
	// (~530k floats in big vs ~200 in small).
	if bigAllocs > smallAllocs+16 {
		t.Fatalf("steady-state Save allocations scale with model size: %v (small) vs %v (big)",
			smallAllocs, bigAllocs)
	}
}

func TestFromBytesRejectsBadBuffers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromBytes accepted a size mismatch")
		}
	}()
	tensor.FromBytes(make([]byte, 15), 2)
}
