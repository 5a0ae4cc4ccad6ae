package benchfile

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// A merge replaces only its own entries: top-level sections written by
// other tools and sibling entries under the same parent survive.
func TestMergeKeepsExistingKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_results.json")
	seed := `{"figures": {"fig7": {"value": 1}}, "micro": {"viterbi_us": 12.5}, "serving": {"goodput_kbps": 408}}`
	if err := os.WriteFile(path, []byte(seed), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Merge(path, "figures", map[string]map[string]float64{"fig8": {"value": 2}}); err != nil {
		t.Fatal(err)
	}
	if err := Merge(path, "", map[string]any{"serving_binary": map[string]int{"frames": 100}}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"figures":        map[string]any{"fig7": map[string]any{"value": 1.0}, "fig8": map[string]any{"value": 2.0}},
		"micro":          map[string]any{"viterbi_us": 12.5},
		"serving":        map[string]any{"goodput_kbps": 408.0},
		"serving_binary": map[string]any{"frames": 100.0},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged file:\n got %v\nwant %v", got, want)
	}
}

// A missing file is created; a file that is not a JSON object is an
// error, never silently overwritten.
func TestMergeCreatesAndRejects(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "new.json")
	if err := Merge(path, "figures", map[string]int{"fig9": 3}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "{\n  \"figures\": {\n    \"fig9\": 3\n  }\n}\n" {
		t.Fatalf("created file %q (err %v)", b, err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("[1, 2]"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Merge(bad, "", map[string]int{"x": 1}); err == nil {
		t.Fatal("merged into a non-object file")
	}
	if b, _ := os.ReadFile(bad); string(b) != "[1, 2]" {
		t.Fatalf("non-object file overwritten: %q", b)
	}
}
