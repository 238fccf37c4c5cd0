package core

import (
	"fmt"
	"io"

	"fhdnn/internal/hdc"
	"fhdnn/internal/nn"
)

// Full-model checkpointing: an FHDnn deployment persists three pieces —
// the frozen extractor weights, the shared random projection, and the
// trained HD prototypes. Save writes them back-to-back; Load restores them
// into an identically-assembled FHDnn (construct with the same
// architecture and config first, then Load).

// Save writes the complete model state to w.
func (f *FHDnn) Save(w io.Writer) error {
	if err := nn.SaveParams(w, f.Extractor.Net.Params()); err != nil {
		return fmt.Errorf("core: save extractor: %w", err)
	}
	if _, err := f.Encoder.WriteTo(w); err != nil {
		return fmt.Errorf("core: save encoder: %w", err)
	}
	if _, err := f.Model.WriteTo(w); err != nil {
		return fmt.Errorf("core: save model: %w", err)
	}
	return nil
}

// Load restores state written by Save into this FHDnn. The receiver must
// have been assembled with the same extractor architecture and Config;
// dimension mismatches are rejected. Every section is read into
// temporaries first and committed only when all three succeed, so a
// failed Load leaves the receiver unchanged.
func (f *FHDnn) Load(r io.Reader) error {
	params := f.Extractor.Net.Params()
	staged := make([]*nn.Param, len(params))
	for i, p := range params {
		staged[i] = &nn.Param{Name: p.Name, W: p.W.Clone()}
	}
	if err := nn.LoadParams(r, staged); err != nil {
		return fmt.Errorf("core: load extractor: %w", err)
	}
	enc, err := hdc.ReadEncoder(r)
	if err != nil {
		return fmt.Errorf("core: load encoder: %w", err)
	}
	if enc.D != f.Encoder.D || enc.N != f.Encoder.N {
		return fmt.Errorf("core: encoder dims %dx%d, want %dx%d", enc.D, enc.N, f.Encoder.D, f.Encoder.N)
	}
	model, err := hdc.ReadModel(r)
	if err != nil {
		return fmt.Errorf("core: load model: %w", err)
	}
	if model.K != f.Model.K || model.D != f.Model.D {
		return fmt.Errorf("core: model dims %dx%d, want %dx%d", model.K, model.D, f.Model.K, f.Model.D)
	}
	nn.CopyParams(params, staged)
	f.Encoder = enc
	f.Model = model
	return nil
}
