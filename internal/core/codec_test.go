package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"drowsydc/internal/simtime"
)

// modelsEqual compares the observable surface of two models over a span
// of hours plus every counter the codec carries.
func modelsEqual(t *testing.T, a, b *Model, hours simtime.Hour) {
	t.Helper()
	for h := simtime.Hour(0); h < hours; h++ {
		st := simtime.Decompose(h)
		if a.IP(st) != b.IP(st) {
			t.Fatalf("IP mismatch at hour %d: %v vs %v", h, a.IP(st), b.IP(st))
		}
	}
	if a.MeanActiveLevel() != b.MeanActiveLevel() ||
		a.HoursObserved() != b.HoursObserved() ||
		a.IdleFractionObserved() != b.IdleFractionObserved() ||
		a.Options() != b.Options() {
		t.Fatal("counters or options differ")
	}
}

// TestCodecSparseRoundTrip pins the version-2 sparse format: a model
// trained over a partial year round-trips exactly and costs far less
// than the dense layout.
func TestCodecSparseRoundTrip(t *testing.T) {
	m := trainedModel(45 * 24) // spans two months of SI_y
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dense, err := m.marshalDense()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) >= len(dense) {
		t.Fatalf("sparse encoding (%d bytes) not smaller than dense (%d bytes)", len(data), len(dense))
	}
	var got Model
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	modelsEqual(t, m, &got, simtime.HoursPerYear)
}

// TestCodecDenseCompat pins backward compatibility: version-1 bytes
// decode to the same model the sparse path produces.
func TestCodecDenseCompat(t *testing.T) {
	m := trainedModel(40 * 24)
	dense, err := m.marshalDense()
	if err != nil {
		t.Fatal(err)
	}
	var got Model
	if err := got.UnmarshalBinary(dense); err != nil {
		t.Fatal(err)
	}
	modelsEqual(t, m, &got, simtime.HoursPerYear)
}

// TestCodecReencodeFixedPoint pins the canonicalization the checkpoint
// layer relies on: encoding a decoded model reproduces the original
// bytes exactly, so a checkpoint captured right after a resume is
// byte-identical to the straight-through capture.
func TestCodecReencodeFixedPoint(t *testing.T) {
	m := trainedModel(70 * 24)
	first, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Model
	if err := got.UnmarshalBinary(first); err != nil {
		t.Fatal(err)
	}
	second, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("re-encode of a decoded model differs from the original bytes")
	}
}

// TestCodecSparseRejections covers the sparse decoder's structural
// errors: truncation anywhere, a month bitmap with out-of-range bits,
// an all-zero month marked present, trailing garbage, and a version
// from the future.
func TestCodecSparseRejections(t *testing.T) {
	m := trainedModel(45 * 24)
	good, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Model
	// Truncation at a spread of byte boundaries (every boundary is the
	// fuzz target's job; here we pin representative sections).
	for _, n := range []int{0, 4, 8, 9, 100, len(good) / 2, len(good) - 1} {
		if err := got.UnmarshalBinary(good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Trailing garbage.
	if err := got.UnmarshalBinary(append(append([]byte{}, good...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Future version.
	future := append([]byte{}, good...)
	binary.LittleEndian.PutUint32(future[4:], 99)
	if err := got.UnmarshalBinary(future); err == nil {
		t.Fatal("unknown version accepted")
	}
	// Bitmap bits beyond month 11. The bitmap sits right after the
	// dense scores.
	bad := append([]byte{}, good...)
	off := 8 + 8*denseScores
	binary.LittleEndian.PutUint16(bad[off:], 0xF000)
	if err := got.UnmarshalBinary(bad); err == nil {
		t.Fatal("out-of-range month bits accepted")
	}
}

// TestCodecFreshModelTiny pins the size win for an untrained model —
// the common state of most VMs at the first month-boundary checkpoint.
func TestCodecFreshModelTiny(t *testing.T) {
	data, err := New().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 8*1024 {
		t.Fatalf("fresh model encodes to %d bytes; want under 8 KB", len(data))
	}
	var got Model
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
}

// marshalDense encodes the legacy dense version-1 layout, which the
// program no longer writes but still decodes. It lets these tests pin
// cross-version compatibility without keeping frozen byte fixtures.
func (m *Model) marshalDense() ([]byte, error) {
	totalScores := denseScores + scoresPerMonth*simtime.MonthsPerYear
	buf := bytes.NewBuffer(make([]byte, 0, 16+8*(totalScores+NumScales+4)))
	var head = []uint32{codecMagic, codecVersionDense}
	for _, v := range head {
		if err := binary.Write(buf, binary.LittleEndian, v); err != nil {
			return nil, err
		}
	}
	writeF := func(v float64) { _ = binary.Write(buf, binary.LittleEndian, v) }
	for _, v := range m.SId {
		writeF(v)
	}
	for d := range m.SIw {
		for _, v := range m.SIw[d] {
			writeF(v)
		}
	}
	for d := range m.SIm {
		for _, v := range m.SIm[d] {
			writeF(v)
		}
	}
	for mo := range m.SIy {
		row := m.SIy[mo]
		if row == nil {
			// Unallocated month: all scores zero; the wire format stays
			// identical to an eagerly allocated table.
			row = &SIMonth{}
		}
		for d := range row {
			for _, v := range row[d] {
				writeF(v)
			}
		}
	}
	for _, v := range m.W {
		writeF(v)
	}
	writeF(m.activeSum)
	_ = binary.Write(buf, binary.LittleEndian, m.activeCount)
	_ = binary.Write(buf, binary.LittleEndian, m.hoursObserved)
	_ = binary.Write(buf, binary.LittleEndian, m.hoursIdle)
	writeF(m.opts.NoiseFloor)
	writeF(m.opts.DescentRate)
	_ = binary.Write(buf, binary.LittleEndian, int64(m.opts.DescentSteps))
	return buf.Bytes(), nil
}
