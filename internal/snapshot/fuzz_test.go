package snapshot

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to Decode, seeded with every committed
// snapshot file. Decode must never panic, must return a nil snapshot with
// every error, and whatever it accepts must survive Encode → Decode
// unchanged. Run it with
//
//	go test ./internal/snapshot -run '^$' -fuzz '^FuzzDecode$' -fuzztime 20s
func FuzzDecode(f *testing.F) {
	var seeds []string
	for _, pattern := range []string{
		filepath.Join("testdata", "*.snap.json"),
		filepath.Join("..", "experiments", "testdata", "snapshots", "*.snap.json"),
	} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, paths...)
	}
	if len(seeds) == 0 {
		f.Fatal("no seed snapshots found")
	}
	for _, p := range seeds {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		if sealed, ok := reseal(data); ok {
			checkDecode(t, sealed)
		}
	})
}

// checkDecode asserts Decode's contract on one input.
func checkDecode(t *testing.T, data []byte) {
	snap, err := Decode(data)
	if err != nil {
		if snap != nil {
			t.Fatalf("Decode returned a snapshot with error %v", err)
		}
		return
	}
	raw, err := Encode(snap)
	if err != nil {
		t.Fatalf("Encode of a decoded snapshot: %v", err)
	}
	again, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode of a re-encoded snapshot: %v", err)
	}
	if !reflect.DeepEqual(again, snap) {
		t.Fatalf("Encode → Decode changed the snapshot: %v", Diff(again, snap))
	}
}

// reseal rewrites an envelope's checksums to match its sections, so a
// mutation inside a section reaches the section decoders instead of
// failing the checksum. Two passes, because the first Marshal may compact
// the sections it checksummed.
func reseal(data []byte) ([]byte, bool) {
	var env envelope
	if json.Unmarshal(data, &env) != nil {
		return nil, false
	}
	for pass := 0; pass < 2; pass++ {
		env.Sums = sums{Meta: sum(env.Meta), Spec: sum(env.Spec), State: sum(env.State)}
		var err error
		if data, err = json.Marshal(&env); err != nil || json.Unmarshal(data, &env) != nil {
			return nil, false
		}
	}
	return data, true
}
