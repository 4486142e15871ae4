package nn

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"cdbtune/internal/mat"
)

// TestTensorsRoundTripBitExact: the codec moves bits, not numbers — NaN
// payloads, the sign of zero, denormals and infinities all come back
// exactly as written (rejecting non-finite weights is Finite's job, after
// decoding), and so do empty tensors and an empty list.
func TestTensorsRoundTripBitExact(t *testing.T) {
	bits := []uint64{
		0x7ff8000000000001, // quiet NaN with a payload
		0x7ff0000000000001, // signalling NaN
		0xfff8dead0000beef, // negative NaN, busy payload
		0x8000000000000000, // −0
		0x0000000000000001, // smallest denormal
		0x800fffffffffffff, // largest negative denormal
		0x7ff0000000000000, // +Inf
		0xfff0000000000000, // −Inf
		math.Float64bits(math.MaxFloat64),
		math.Float64bits(0.1),
	}
	vals := make([]float64, len(bits))
	for i, b := range bits {
		vals[i] = math.Float64frombits(b)
	}
	for _, in := range [][][]float64{{vals, {}, vals[3:5]}, {}} {
		var buf bytes.Buffer
		if err := WriteTensors(&buf, in); err != nil {
			t.Fatal(err)
		}
		want := tensorHeader
		for _, ts := range in {
			want += 4 + 8*len(ts)
		}
		if buf.Len() != want {
			t.Fatalf("encoded %d bytes, layout says %d", buf.Len(), want)
		}
		out, err := ReadTensors(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(in) {
			t.Fatalf("%d tensors back, wrote %d", len(out), len(in))
		}
		for i := range in {
			if len(out[i]) != len(in[i]) {
				t.Fatalf("tensor %d: %d values back, wrote %d", i, len(out[i]), len(in[i]))
			}
			for j := range in[i] {
				if g, w := math.Float64bits(out[i][j]), math.Float64bits(in[i][j]); g != w {
					t.Fatalf("tensor %d[%d]: bits %016x, wrote %016x", i, j, g, w)
				}
			}
		}
	}
}

// TestReadTensorsBoundsDeclaredSizes: a count or length field larger than
// the bytes behind it is an error found before allocating, whatever it
// claims — the whole decode stays within a small multiple of the input.
func TestReadTensorsBoundsDeclaredSizes(t *testing.T) {
	var good bytes.Buffer
	if err := WriteTensors(&good, [][]float64{{1, 2, 3}, {4}}); err != nil {
		t.Fatal(err)
	}
	corrupt := func(off int, v uint32) []byte {
		b := append([]byte(nil), good.Bytes()...)
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	cases := map[string][]byte{
		"bad magic":          append([]byte("XXXX"), good.Bytes()[4:]...),
		"future version":     corrupt(4, 2),
		"huge tensor count":  corrupt(8, math.MaxUint32),
		"count one too many": corrupt(8, 3),
		"huge tensor length": corrupt(tensorHeader, math.MaxUint32),
		"length one too big": corrupt(tensorHeader, 4),
		"truncated":          good.Bytes()[:good.Len()-1],
		"trailing byte":      append(append([]byte(nil), good.Bytes()...), 0),
		"header only":        good.Bytes()[:tensorHeader-1],
	}
	for name, data := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadTensors(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: rejecting %d bytes allocated %d", name, len(data), grew)
		}
	}
	if _, err := ReadTensors(strings.NewReader("CDB")); err == nil {
		t.Error("a reader without Len must go through the same checks")
	}
}

// TestAdoptIsCopyOnWrite: an adopted state becomes the network's values
// without a copy, and no write path reaches it — Own copies it out first,
// and CopyTo and InitUniform into an adopted network do so themselves.
func TestAdoptIsCopyOnWrite(t *testing.T) {
	src := NewNetwork(NewDense(3, 2), NewBatchNorm(2))
	src.InitUniform(rand.New(rand.NewSource(1)), 0.5)
	st := src.State()
	want := st.Tensors()
	for i := range want {
		want[i] = append([]float64(nil), want[i]...)
	}
	unchanged := func(what string) {
		t.Helper()
		for i, ts := range st.Tensors() {
			for j, v := range ts {
				if v != want[i][j] {
					t.Fatalf("%s wrote into the adopted state (tensor %d[%d])", what, i, j)
				}
			}
		}
	}

	dst := NewNetwork(NewDense(3, 2), NewBatchNorm(2))
	if err := dst.Adopt(st); err != nil {
		t.Fatal(err)
	}
	if &dst.Params()[0].Value.Data[0] != &st.Params[0][0] {
		t.Fatal("Adopt copied the state")
	}
	dst.Own()
	dst.Params()[0].Value.Data[0] = 42
	dst.Forward(mat.New(4, 3), true) // writes BatchNorm running statistics
	unchanged("a write after Own")

	for name, write := range map[string]func(n *Network){
		"CopyTo":      func(n *Network) { NewNetwork(NewDense(3, 2), NewBatchNorm(2)).CopyTo(n) },
		"InitUniform": func(n *Network) { n.InitUniform(rand.New(rand.NewSource(2)), 0.5) },
	} {
		n := NewNetwork(NewDense(3, 2), NewBatchNorm(2))
		if err := n.Adopt(st); err != nil {
			t.Fatal(err)
		}
		write(n)
		unchanged(name)
	}
}
