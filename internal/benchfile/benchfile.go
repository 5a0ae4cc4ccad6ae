// Package benchfile is the one writer of the repository's BENCH JSON
// files (BENCH_results.json and the per-run files CI writes beside
// it). Several tools contribute sections to one file — backfi-bench
// the per-figure "figures" map, backfi-loadgen the serving entries,
// backfi-chaos the chaos, wild and cluster soaks — so every write is a
// merge that keeps what the other tools wrote.
package benchfile

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// Merge folds entries into the JSON object stored at path, creating
// the file if it does not exist. With parent "" each entry replaces its
// top-level key; otherwise entries replace keys inside the object under
// parent (created if absent). Every other key, at the top level and
// under parent, keeps its value.
func Merge[V any](path, parent string, entries map[string]V) error {
	doc := map[string]json.RawMessage{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &doc); err != nil {
			return fmt.Errorf("existing %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	target := doc
	if parent != "" {
		target = map[string]json.RawMessage{}
		if raw, ok := doc[parent]; ok {
			if err := json.Unmarshal(raw, &target); err != nil {
				return fmt.Errorf("existing %s: %q: %w", path, parent, err)
			}
		}
	}
	for k, v := range entries {
		b, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("%s: entry %q: %w", path, k, err)
		}
		target[k] = b
	}
	if parent != "" {
		b, err := json.Marshal(target)
		if err != nil {
			return err
		}
		doc[parent] = b
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
