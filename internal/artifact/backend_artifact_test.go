package artifact

import (
	"bytes"
	"errors"
	"testing"

	"impala/internal/automata"
	"impala/internal/backend"
	"impala/internal/core"
	"impala/internal/place"
	"impala/internal/workload"
)

// buildCamArtifact compiles a benchmark for the CAM target and seals it
// with the backend tag and section.
func buildCamArtifact(t testing.TB, bench string) (*Artifact, *automata.NFA) {
	t.Helper()
	b, ok := workload.Get(bench)
	if !ok {
		t.Fatalf("unknown benchmark %s", bench)
	}
	n, err := b.Generate(0.004, 7)
	if err != nil {
		t.Fatalf("%s: generate: %v", bench, err)
	}
	bk, err := backend.Get(backend.CamName)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Compile(n, core.Config{TargetBits: 8, StrideDims: 2, Backend: backend.CamName})
	if err != nil {
		t.Fatalf("%s: compile: %v", bench, err)
	}
	pl, err := bk.Place(res.NFA, place.Options{Seed: 3})
	if err != nil {
		t.Fatalf("%s: place: %v", bench, err)
	}
	a := New(res.NFA, pl, n, Meta{Seed: 3, CreatedUnix: 1700000000}, nil)
	payload, err := bk.SealSection(res.NFA, pl)
	if err != nil {
		t.Fatalf("%s: seal: %v", bench, err)
	}
	a.SetBackend(bk.Name(), payload)
	return a, n
}

// TestCamArtifactRoundTrip pins the tagged-artifact format: the backend
// name and its sealed section survive a save/load round trip, and saving
// the loaded artifact reproduces the identical byte stream.
func TestCamArtifactRoundTrip(t *testing.T) {
	a, _ := buildCamArtifact(t, "Bro217")
	raw := saveBytes(t, a)

	got, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Meta.Backend != backend.CamName || got.Meta.BackendName() != backend.CamName {
		t.Fatalf("loaded backend tag %q (effective %q), want %q",
			got.Meta.Backend, got.Meta.BackendName(), backend.CamName)
	}
	if !bytes.Equal(got.BackendPayload, a.BackendPayload) {
		t.Fatalf("backend payload diverges: %d vs %d bytes", len(got.BackendPayload), len(a.BackendPayload))
	}
	resaved := saveBytes(t, got)
	if !bytes.Equal(raw, resaved) {
		t.Fatalf("save(load(save)) not byte-identical: %d vs %d bytes", len(resaved), len(raw))
	}
}

// TestDefaultBackendTagNormalized pins the refactor's correctness bar:
// stamping the default backend changes nothing — the tag is normalized to
// the empty string and the byte stream is identical to an unstamped save,
// so pre-backend artifacts and default-backend artifacts are the same
// format.
func TestDefaultBackendTagNormalized(t *testing.T) {
	a, _ := buildArtifact(t, "Bro217", 1)
	before := saveBytes(t, a)
	a.SetBackend(backend.DefaultName, nil)
	if a.Meta.Backend != "" {
		t.Fatalf("default backend tag not normalized: %q", a.Meta.Backend)
	}
	if a.Meta.BackendName() != backend.DefaultName {
		t.Fatalf("effective backend %q, want %q", a.Meta.BackendName(), backend.DefaultName)
	}
	after := saveBytes(t, a)
	if !bytes.Equal(before, after) {
		t.Fatal("stamping the default backend changed the byte stream")
	}
	got, err := Load(bytes.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.Backend != "" || got.BackendPayload != nil {
		t.Fatalf("default artifact decoded with tag %q / %d-byte payload",
			got.Meta.Backend, len(got.BackendPayload))
	}
}

// TestBackendCorruptionMatrix extends the load corruption matrix with the
// backend-tag failure classes.
func TestBackendCorruptionMatrix(t *testing.T) {
	t.Run("unknown backend tag", func(t *testing.T) {
		a, _ := buildArtifact(t, "Bro217", 1)
		a.SetBackend("no-such-target", nil)
		raw := saveBytes(t, a)
		if _, err := Load(bytes.NewReader(raw)); !errors.Is(err, backend.ErrUnknown) {
			t.Fatalf("unknown backend tag accepted: %v", err)
		}
	})

	t.Run("payload without tag", func(t *testing.T) {
		a, _ := buildArtifact(t, "Bro217", 1)
		a.BackendPayload = []byte{1, 2, 3, 4} // bypasses SetBackend
		var buf bytes.Buffer
		if err := a.Save(&buf); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("save accepted payload without tag: %v", err)
		}
	})

	t.Run("BKND section without tag", func(t *testing.T) {
		a, _ := buildArtifact(t, "Bro217", 1)
		raw := saveBytes(t, a)
		var sec bytes.Buffer
		writeSection(&sec, "BKND", []byte{1, 2, 3, 4})
		mut := append(append([]byte(nil), raw...), sec.Bytes()...)
		if _, err := Load(bytes.NewReader(restamp(mut))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("BKND without META tag accepted: %v", err)
		}
	})

	t.Run("cam tag without BKND section", func(t *testing.T) {
		a, _ := buildCamArtifact(t, "Bro217")
		a.BackendPayload = nil
		raw := saveBytes(t, a)
		if _, err := Load(bytes.NewReader(raw)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cam tag without its section accepted: %v", err)
		}
	})

	t.Run("tampered cam payload", func(t *testing.T) {
		a, _ := buildCamArtifact(t, "Bro217")
		bad := append([]byte(nil), a.BackendPayload...)
		bad[4] ^= 0xFF // sealed row count
		a.BackendPayload = bad
		raw := saveBytes(t, a)
		if _, err := Load(bytes.NewReader(raw)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("tampered cam payload accepted: %v", err)
		}
	})

	t.Run("cam geometry mismatch", func(t *testing.T) {
		// A cam tag on a 4-bit automaton violates the backend's geometry
		// constraint even before the section is opened.
		a, _ := buildArtifact(t, "Bro217", 1) // 4-bit compile
		a.Meta.Backend = backend.CamName
		raw := saveBytes(t, a)
		if _, err := Load(bytes.NewReader(raw)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cam tag on 4-bit automaton accepted: %v", err)
		}
	})
}
