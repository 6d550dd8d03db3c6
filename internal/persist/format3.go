package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sync"
	"unsafe"

	"modelslicing/internal/faults"
	"modelslicing/internal/nn"
	"modelslicing/internal/tensor"
)

// Format v3 ("MSLC0003") is the mmap-able checkpoint layout: a CRC-protected
// section table up front, then one 64-byte-aligned raw little-endian float64
// payload per parameter. Because payloads sit at fixed aligned offsets with
// no per-element framing, Open maps the file and binds tensors straight over
// the pages — cold start is O(1) page mapping instead of a parse-and-copy of
// every weight, and co-located replicas serving the same artifact share page
// cache. On disk:
//
//	magic   "MSLC0003"                               8 bytes
//	hdrLen  uint64                                   8 bytes
//	header (hdrLen bytes):
//	    epoch    uint64      training epoch the artifact was saved at
//	    count    uint32      number of sections
//	    per section:
//	        name    uint32 length + bytes
//	        kind    uint32   (0 = raw float64 weights; future: packed panels)
//	        rank    uint32 + rank × uint32 dims
//	        offset  uint64   absolute, 64-byte aligned
//	        length  uint64   payload bytes
//	        crc     uint32   CRC32-IEEE of the payload
//	hdrCRC  uint32           CRC32-IEEE over everything above
//	zero padding to the first section offset; zero padding between sections
//
// hdrCRC covers every section CRC, so it doubles as a content identity for
// the whole checkpoint (Checkpoint.CRC, the value /metrics exports). All
// integers are little-endian; payloads are native little-endian float64, so
// the zero-copy Open path requires a little-endian host (every other path,
// including Load, stays portable).
const magicV3 = "MSLC0003"

// sectionKindF64 is the only payload kind today: raw row-major float64
// weights. The field exists so pre-packed or quantized panel sections can
// join the same artifact without a format break.
const sectionKindF64 = 0

const sectionAlign = 64

// section is one parsed entry of the v3 section table.
type section struct {
	name   string
	kind   uint32
	shape  []int
	off    uint64
	length uint64
	crc    uint32
}

// Checkpoint is an opened v3 checkpoint: the verified section table plus the
// mapped (or, on non-unix hosts, read) file bytes. Bind serves tensors as
// zero-copy views into the mapping, so the Checkpoint must outlive every
// model bound to it; Close unmaps.
type Checkpoint struct {
	// Epoch is the training epoch recorded at save time (0 when unknown).
	Epoch uint64
	// CRC is the header CRC32 — a content identity covering the section
	// table and, through the per-section CRCs, every payload byte.
	CRC uint32
	// Path is the file the checkpoint was opened from.
	Path string

	sections []section
	data     []byte
	unmap    func() error

	mu     sync.Mutex
	closed bool
}

// hostLittleEndian reports the CPU byte order; the zero-copy Open path reads
// float64 payloads in place and is only correct on little-endian hosts.
func hostLittleEndian() bool {
	var one uint16 = 1
	return *(*byte)(unsafe.Pointer(&one)) == 1
}

// Open maps a v3 checkpoint and verifies its header — O(1) in the payload
// bytes: no weight is read, parsed or copied (payload pages fault in lazily
// as inference first touches them). Use Verify for a full integrity sweep and
// Bind to serve a model over the mapping.
func Open(path string) (*Checkpoint, error) {
	if err := faults.ErrOn(faults.DiskError); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if !hostLittleEndian() {
		return nil, fmt.Errorf("persist: %s: zero-copy open requires a little-endian host (use Load)", path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if fi.Size() < int64(len(magicV3)) {
		return nil, fmt.Errorf("persist: %s is not a model-slicing checkpoint", path)
	}
	data, unmap, err := mapFile(f, fi.Size())
	if err != nil {
		return nil, fmt.Errorf("persist: %s: %w", path, err)
	}
	ck, err := parseV3(data, path)
	if err != nil {
		_ = unmap()
		return nil, err
	}
	ck.unmap = unmap
	return ck, nil
}

// parseV3 validates the magic, header CRC and section-table bounds of a v3
// image and returns the Checkpoint view over it. It reads only the header
// bytes, never the payloads.
func parseV3(data []byte, path string) (*Checkpoint, error) {
	if len(data) < len(magicV3) || string(data[:len(magicV3)]) != magicV3 {
		return nil, fmt.Errorf("persist: %s is not a model-slicing checkpoint", path)
	}
	if len(data) < len(magicV3)+8 {
		return nil, fmt.Errorf("persist: %s: truncated header", path)
	}
	hdrLen := binary.LittleEndian.Uint64(data[len(magicV3):])
	hdrEnd := uint64(len(magicV3)) + 8 + hdrLen
	if hdrLen > uint64(len(data)) || hdrEnd+4 > uint64(len(data)) {
		return nil, fmt.Errorf("persist: %s: truncated header", path)
	}
	want := binary.LittleEndian.Uint32(data[hdrEnd:])
	got := crc32.ChecksumIEEE(data[:hdrEnd])
	if got != want {
		return nil, fmt.Errorf("persist: %s: header checksum mismatch (%08x != %08x): checkpoint is corrupt", path, got, want)
	}

	r := byteReader{b: data[len(magicV3)+8 : hdrEnd]}
	epoch, _ := r.uint64()
	count, err := r.uint32()
	if err != nil {
		return nil, fmt.Errorf("persist: %s: truncated header", path)
	}
	if count > 1<<20 {
		return nil, fmt.Errorf("persist: %s: implausible section count %d", path, count)
	}
	ck := &Checkpoint{Epoch: epoch, CRC: want, Path: path, data: data}
	prevEnd := hdrEnd + 4
	for i := uint32(0); i < count; i++ {
		var s section
		if s.name, err = r.str(); err != nil {
			return nil, fmt.Errorf("persist: %s: section %d: %w", path, i, err)
		}
		kind, _ := r.uint32()
		rank, err := r.uint32()
		if err != nil || rank > 8 {
			return nil, fmt.Errorf("persist: %s: section %q: bad rank", path, s.name)
		}
		s.kind = kind
		s.shape = make([]int, rank)
		// No section can hold more floats than the file has bytes for, so
		// the element count is capped there — which also keeps n·8 from
		// wrapping into a length that matches.
		maxElems := len(data) / 8
		n := 1
		for j := range s.shape {
			d, err := r.uint32()
			if err != nil || d == 0 || d > 1<<28 || n > maxElems/int(d) {
				return nil, fmt.Errorf("persist: %s: section %q: bad shape", path, s.name)
			}
			s.shape[j] = int(d)
			n *= int(d)
		}
		s.off, _ = r.uint64()
		s.length, _ = r.uint64()
		if s.crc, err = r.uint32(); err != nil {
			return nil, fmt.Errorf("persist: %s: truncated section table", path)
		}
		if s.kind != sectionKindF64 {
			return nil, fmt.Errorf("persist: %s: section %q has unknown kind %d", path, s.name, s.kind)
		}
		if s.length != uint64(n)*8 {
			return nil, fmt.Errorf("persist: %s: section %q: length %d does not match shape %v", path, s.name, s.length, s.shape)
		}
		if s.off%sectionAlign != 0 || s.off < prevEnd || s.off > uint64(len(data)) || s.length > uint64(len(data))-s.off {
			return nil, fmt.Errorf("persist: %s: section %q: bad offset/length (torn checkpoint?)", path, s.name)
		}
		prevEnd = s.off + s.length
		ck.sections = append(ck.sections, s)
	}
	if r.len() != 0 {
		return nil, fmt.Errorf("persist: %s: trailing bytes in section table", path)
	}
	if prevEnd != uint64(len(data)) {
		return nil, fmt.Errorf("persist: %s: file length %d does not match section table end %d", path, len(data), prevEnd)
	}
	return ck, nil
}

// Verify sweeps the full file: every inter-section padding byte must be zero
// and every payload must match its recorded CRC32. This is the O(n) integrity
// pass Open deliberately skips; run it when the artifact's provenance is in
// doubt (or at server startup, where it is still far cheaper than a
// parse-copy Load).
func (c *Checkpoint) Verify() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return c.errClosed()
	}
	cursor := c.headerEnd()
	for _, s := range c.sections {
		for _, b := range c.data[cursor:s.off] {
			if b != 0 {
				return fmt.Errorf("persist: %s: non-zero padding before section %q: checkpoint is corrupt", c.Path, s.name)
			}
		}
		if got := crc32.ChecksumIEEE(c.data[s.off : s.off+s.length]); got != s.crc {
			return fmt.Errorf("persist: %s: section %q checksum mismatch (%08x != %08x): checkpoint is corrupt",
				c.Path, s.name, got, s.crc)
		}
		cursor = s.off + s.length
	}
	return nil
}

// headerEnd returns the offset just past the header CRC.
func (c *Checkpoint) headerEnd() uint64 {
	if len(c.sections) == 0 {
		return uint64(len(c.data))
	}
	// Recompute from the layout rather than storing it: hdrLen is at a fixed
	// place.
	return uint64(len(magicV3)) + 8 + binary.LittleEndian.Uint64(c.data[len(magicV3):]) + 4
}

// Bind serves a model's parameters as zero-copy views into the mapped
// checkpoint: names and shapes must match in order (same contract as Load),
// each Param.Value is replaced by a tensor aliasing the mapping, and
// Param.Foreign is set so training paths know to copy-on-write first. No
// payload byte is read — binding a gigabyte model costs a few pointer writes.
// The Checkpoint must stay open for as long as the bound model serves.
func (c *Checkpoint) Bind(params []*nn.Param) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return c.errClosed()
	}
	if err := c.match(params); err != nil {
		return err
	}
	// All structural checks passed; now flip the whole model atomically with
	// respect to errors (no half-bound model on a mismatch).
	for i, p := range params {
		s := c.sections[i]
		p.Value = tensor.FromBytes(c.data[s.off:s.off+s.length], s.shape...)
		p.Foreign = true
	}
	return nil
}

// match checks that params carry the checkpoint's section names and shapes,
// in order: the structural contract Load and Bind share.
func (c *Checkpoint) match(params []*nn.Param) error {
	if len(c.sections) != len(params) {
		return fmt.Errorf("persist: checkpoint has %d params, model has %d", len(c.sections), len(params))
	}
	for i, p := range params {
		s := c.sections[i]
		if s.name != p.Name {
			return fmt.Errorf("persist: param %d is %q in checkpoint but %q in model", i, s.name, p.Name)
		}
		if len(s.shape) != len(p.Value.Shape) {
			return fmt.Errorf("persist: param %q rank mismatch", s.name)
		}
		for j, d := range s.shape {
			if d != p.Value.Shape[j] {
				return fmt.Errorf("persist: param %q shape mismatch at dim %d: %d vs %d",
					s.name, j, d, p.Value.Shape[j])
			}
		}
	}
	return nil
}

func (c *Checkpoint) errClosed() error {
	return fmt.Errorf("persist: %s: checkpoint is closed", c.Path)
}

// Close releases the mapping. Any model still bound to it must not be used
// afterwards; swaps keep the old Checkpoint open until its last in-flight
// window settles (in practice, for the process lifetime — mappings are
// bounded by the number of swaps, not by traffic).
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.unmap == nil {
		c.closed = true
		return nil
	}
	c.closed = true
	return c.unmap()
}

// byteReader is a bounds-checked little-endian cursor over the header block.
type byteReader struct {
	b []byte
}

func (r *byteReader) len() int { return len(r.b) }

var errShortHeader = fmt.Errorf("truncated section table")

func (r *byteReader) uint32() (uint32, error) {
	if len(r.b) < 4 {
		return 0, errShortHeader
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v, nil
}

func (r *byteReader) uint64() (uint64, error) {
	if len(r.b) < 8 {
		return 0, errShortHeader
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v, nil
}

func (r *byteReader) str() (string, error) {
	n, err := r.uint32()
	if err != nil {
		return "", err
	}
	if n > 1<<20 || uint64(n) > uint64(len(r.b)) {
		return "", fmt.Errorf("implausible string length %d", n)
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s, nil
}

// encBuf is a reusable checkpoint image builder: the whole v3 file is encoded
// into one pooled byte slice and written with a single Write, so steady-state
// periodic saves allocate nothing proportional to the parameter count (the
// pool retains the grown buffer between epochs).
type encBuf struct {
	b []byte
}

var encPool = sync.Pool{New: func() any { return new(encBuf) }}

func (e *encBuf) u32(v uint32) {
	e.b = binary.LittleEndian.AppendUint32(e.b, v)
}

func (e *encBuf) u64(v uint64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, v)
}

func (e *encBuf) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// padTo extends the buffer with zeros to the given absolute length.
func (e *encBuf) padTo(n int) {
	for len(e.b) < n {
		e.b = append(e.b, 0)
	}
}

// floats appends a float64 slice as raw little-endian payload without the
// full-slice scratch allocation binary.Write would make.
func (e *encBuf) floats(v []float64) {
	off := len(e.b)
	e.padTo(off + 8*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint64(e.b[off+8*i:], math.Float64bits(f))
	}
}

func align64(n int) int {
	return (n + sectionAlign - 1) &^ (sectionAlign - 1)
}

// encodeV3 builds the complete v3 file image for params into e.b.
func encodeV3(e *encBuf, params []*nn.Param, epoch uint64) {
	e.b = e.b[:0]
	e.b = append(e.b, magicV3...)
	hdrLenAt := len(e.b)
	e.u64(0) // hdrLen, patched below
	hdrStart := len(e.b)
	e.u64(epoch)
	e.u32(uint32(len(params)))

	// First pass: emit the section table with offsets laid out from a
	// provisional header end; the header size is exact after this pass, so
	// compute it up front instead.
	hdrSize := 8 + 4 // epoch + count
	for _, p := range params {
		hdrSize += 4 + len(p.Name) + 4 + 4 + 4*len(p.Value.Shape) + 8 + 8 + 4
	}
	payloadAt := align64(len(magicV3) + 8 + hdrSize + 4)
	crcAt := make([]int, len(params))
	for i, p := range params {
		e.str(p.Name)
		e.u32(sectionKindF64)
		e.u32(uint32(len(p.Value.Shape)))
		for _, d := range p.Value.Shape {
			e.u32(uint32(d))
		}
		e.u64(uint64(payloadAt))
		e.u64(uint64(8 * len(p.Value.Data)))
		crcAt[i] = len(e.b)
		e.u32(0) // payload CRC, patched below
		payloadAt = align64(payloadAt + 8*len(p.Value.Data))
	}
	binary.LittleEndian.PutUint64(e.b[hdrLenAt:], uint64(len(e.b)-hdrStart))
	hdrCRCAt := len(e.b)
	e.u32(0) // header CRC, patched below

	for i, p := range params {
		e.padTo(align64(len(e.b)))
		start := len(e.b)
		e.floats(p.Value.Data)
		binary.LittleEndian.PutUint32(e.b[crcAt[i]:], crc32.ChecksumIEEE(e.b[start:]))
	}
	binary.LittleEndian.PutUint32(e.b[hdrCRCAt:], crc32.ChecksumIEEE(e.b[:hdrCRCAt]))
}
