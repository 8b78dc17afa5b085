package fl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pelta/internal/models"
	"pelta/internal/tensor"
)

// tinyModel is the fixed 26-weight ViT the checkpoint fuzzer applies to.
func tinyModel() models.Model {
	cfg := models.ViTConfig{Name: "tiny", InputC: 1, InputHW: 2, Patch: 2, Dim: 2, Heads: 1, MLPDim: 2, Classes: 2}
	return models.NewViT(cfg, tensor.NewRNG(1))
}

// FuzzLoadCheckpoint writes arbitrary bytes as a checkpoint file, loads it
// and applies it to tinyModel. Neither step may panic, and a snapshot Apply
// accepts leaves every parameter finite and equal to it. The seed corpus
// (testdata/fuzz/FuzzLoadCheckpoint) holds a stamped and a legacy
// checkpoint, an empty and a truncated file, short Names and a NaN weight.
func FuzzLoadCheckpoint(f *testing.F) {
	m := tinyModel()
	path := filepath.Join(f.TempDir(), "fuzz.ckpt")
	f.Fuzz(func(t *testing.T, buf []byte) {
		if err := os.WriteFile(path, buf, 0o600); err != nil {
			t.Fatal(err)
		}
		w, _, err := LoadCheckpoint(path)
		if err != nil || Apply(m, w) != nil {
			return
		}
		for i, p := range m.Params() {
			for j, v := range p.Data.Data() {
				if fv := float64(v); math.IsNaN(fv) || math.IsInf(fv, 0) || v != w.Data[i][j] {
					t.Fatalf("applied %s[%d] = %v, snapshot holds %v", p.Name, j, v, w.Data[i][j])
				}
			}
		}
	})
}

// FuzzReadFrame reads arbitrary bytes as one FL wire frame. It is
// differential both ways: a frame the reader accepts re-encodes to exactly
// the bytes it was read from, and a message the writer builds from the same
// bytes (their float32 bits as weights, the bytes as text) decodes to the
// same message, bit for bit. A refusal is a *FrameError, or io.EOF for no
// bytes at all. The seed corpus (testdata/fuzz/FuzzReadFrame) holds writer
// output of each kind and every row of hostileFrames.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := readFrame(bytes.NewReader(data), nil)
		var m message
		if err == nil {
			m, err = parseFrame(body)
		}
		var fe *FrameError
		switch {
		case err == nil:
			again, err := appendFrame(nil, &m)
			if err != nil {
				t.Fatalf("accepted frame does not re-encode: %v", err)
			}
			if !bytes.Equal(again, data[:4+len(body)]) {
				t.Fatalf("accepted frame re-encodes to other bytes:\n got %x\nwant %x", again, data[:4+len(body)])
			}
		case len(data) == 0 && err == io.EOF:
		case !errors.As(err, &fe):
			t.Fatalf("refusal %v (%T) is not a *FrameError", err, err)
		}

		vals := make([]float32, len(data)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		half := len(vals) / 2
		text := string(data)
		w := Weights{
			Names:  []string{text, ""},
			Shapes: [][]int{{half}, {1, len(vals) - half}},
			Data:   [][]float32{vals[:half], vals[half:]},
		}
		for _, want := range []message{
			{kind: frameRequest, req: UpdateRequest{Round: -len(data), Weights: w}},
			{kind: frameResponse, resp: UpdateResponse{ClientID: text, Samples: len(vals), TrainNS: int64(len(data)) << 40, Note: text, Weights: w}},
			{kind: frameError, err: text},
		} {
			frame, err := appendFrame(nil, &want)
			if err != nil {
				t.Fatal(err)
			}
			body, err := readFrame(bytes.NewReader(frame), nil)
			if err != nil {
				t.Fatalf("writer output unreadable: %v", err)
			}
			got, err := parseFrame(body)
			if err != nil {
				t.Fatalf("writer output refused: %v", err)
			}
			requireSameMessage(t, &want, &got)
		}
	})
}
