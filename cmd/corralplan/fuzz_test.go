package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"corral"
)

// FuzzDecodeJobs: decoding any input and planning whatever decodes must
// never panic. An accepted workload plans with one assignment per
// non-ad-hoc job under both objectives. Seeded from workloadgen output;
// the committed corpus adds the inputs that once crashed ([null]) or
// silently merged jobs (duplicate IDs).
func FuzzDecodeJobs(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed workloads in testdata (%v)", err)
	}
	for _, path := range seeds {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	cluster := corral.ClusterConfig{
		Racks: 3, MachinesPerRack: 4, SlotsPerMachine: 2,
		NICBandwidth: 10e9 / 8, Oversubscription: 5,
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, err := decodeJobs(bytes.NewReader(data))
		if err != nil {
			if jobs != nil {
				t.Fatalf("decodeJobs returned %d jobs with error %v", len(jobs), err)
			}
			return
		}
		planned := 0
		for _, j := range jobs {
			if j != nil && !j.AdHoc {
				planned++
			}
		}
		for _, plan := range []func(corral.ClusterConfig, []*corral.Job) (*corral.Plan, error){
			corral.PlanBatch, corral.PlanOnline,
		} {
			p, err := plan(cluster, jobs)
			if err != nil {
				continue
			}
			if len(p.Assignments) != planned {
				t.Fatalf("plan has %d assignments for %d plannable jobs", len(p.Assignments), planned)
			}
		}
	})
}
