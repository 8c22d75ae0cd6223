package clean

import (
	"bytes"
	"strings"
	"testing"

	apiv1 "repro/api/v1"
	"repro/internal/predict"
	"repro/internal/prog"
)

// TestDetectionEnumInSync pins the invariant that makes ParseDetection's
// error text trustworthy: every mode in [0, numDetections) has a
// distinct name (String falls back to "none" for unhandled values, so a
// forgotten switch case shows up as a duplicate), parses back to itself,
// and appears verbatim in the unknown-detector error message.
func TestDetectionEnumInSync(t *testing.T) {
	modes := Detections()
	if len(modes) != int(numDetections) {
		t.Fatalf("Detections() returned %d modes, want %d", len(modes), int(numDetections))
	}
	_, err := ParseDetection("definitely-not-a-detector")
	if err == nil {
		t.Fatal("ParseDetection accepted a bogus name")
	}
	seen := make(map[string]Detection)
	for _, d := range modes {
		name := d.String()
		if prev, dup := seen[name]; dup {
			t.Errorf("modes %d and %d share the name %q (missing String case?)", int(prev), int(d), name)
		}
		seen[name] = d
		back, perr := ParseDetection(name)
		if perr != nil || back != d {
			t.Errorf("ParseDetection(%q) = %v, %v; want %v", name, back, perr, d)
		}
		if !strings.Contains(err.Error(), name) {
			t.Errorf("ParseDetection error %q does not mention mode %q", err, name)
		}
		cfg := Config{Detection: d}
		if verr := cfg.Validate(); verr != nil {
			t.Errorf("Validate rejected mode %v: %v", d, verr)
		}
	}
	if verr := (Config{Detection: numDetections}).Validate(); verr == nil {
		t.Error("Validate accepted the numDetections sentinel")
	}
	if verr := (Config{Detection: -1}).Validate(); verr == nil {
		t.Error("Validate accepted a negative detection mode")
	}
}

// TestPredictModeThroughOptions covers the predict mode's facade
// surface: option construction, naming, and the detector it attaches.
func TestPredictModeThroughOptions(t *testing.T) {
	d, err := ParseDetection("predict")
	if err != nil || d != DetectPredict {
		t.Fatalf("ParseDetection(predict) = %v, %v", d, err)
	}
	cfg, err := NewConfig(WithDetection(DetectPredict), WithSeed(1))
	if err != nil {
		t.Fatalf("NewConfig(predict): %v", err)
	}
	if cfg.NewDetector() == nil {
		t.Fatal("predict mode should attach the CLEAN certification detector, got nil")
	}
	if got := DetectPredict.String(); got != "predict" {
		t.Fatalf("DetectPredict.String() = %q", got)
	}

	// Run dispatches predict itself: its prediction encodes byte for byte
	// like the pipeline called directly under the same seed.
	p := prog.LitmusByName("waw").P
	rep := Run(ProgramTarget(p), cfg)
	if rep.Err != nil || rep.Predict == nil || len(rep.Predict.Predictions) == 0 {
		t.Fatalf("Run(waw, predict): err %v, no certified predictions", rep.Err)
	}
	got, err := apiv1.Encode(rep.Predict.V1(nil))
	if err != nil {
		t.Fatal(err)
	}
	want, err := apiv1.Encode(predict.Run(predict.ProgramTarget(p), predict.Options{Seed: 1}).V1(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Run(waw, predict) predictions differ from predict.Run:\n%s\nwant\n%s", got, want)
	}
}
