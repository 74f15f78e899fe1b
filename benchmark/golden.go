package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// goldenJSON maps each workload to the digests its reference pass must
// produce at defaultSeed: one per grid cell for the mining workloads; the
// rule queries' counts and the scan's row set for serve.
//
//go:embed golden.json
var goldenJSON []byte

func goldenFor(workload string) ([]string, error) {
	var all map[string][]string
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	want, ok := all[workload]
	if !ok {
		return nil, fmt.Errorf("golden.json has no digests for %s", workload)
	}
	return want, nil
}
