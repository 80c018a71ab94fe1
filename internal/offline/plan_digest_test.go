package offline

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
	"uopsim/internal/workload"
)

// -update-plan-digests regenerates testdata/plan_digests.json. Only do this
// when a plan-visible change is intentional (and bump planVersion with it);
// solver performance work must leave the file untouched.
var updatePlanDigests = flag.Bool("update-plan-digests", false, "rewrite testdata/plan_digests.json")

// planDigestBlocks is the trace length the digests are pinned at.
const planDigestBlocks = 20000

type planDigestFile struct {
	Blocks int `json:"blocks"`
	// Digests maps "app/model/fold|nofold" to the SHA-256 of EncodePlan.
	Digests map[string]string `json:"digests"`
}

// collectPlanDigests solves every app × {OHR, BHR, VC} × {fold, no fold}
// plan at the default geometry and hashes its encoding.
func collectPlanDigests(t *testing.T) planDigestFile {
	t.Helper()
	out := planDigestFile{Blocks: planDigestBlocks, Digests: map[string]string{}}
	cfg := uopcache.DefaultConfig()
	for _, app := range workload.Names() {
		spec, err := workload.Get(app)
		if err != nil {
			t.Fatal(err)
		}
		pt := uopcache.Prepare(cfg, trace.FormPWs(workload.GenerateSpec(spec, planDigestBlocks, 0), 0))
		for _, model := range []CostModel{CostOHR, CostBHR, CostVC} {
			for _, fold := range []bool{false, true} {
				var buf bytes.Buffer
				if err := EncodePlan(&buf, ComputeDecisionsPrepared(nil, pt, cfg, model, fold, 0, 0)); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				out.Digests[planDigestName(app, model, fold)] = hex.EncodeToString(sum[:])
			}
		}
	}
	return out
}

func planDigestName(app string, model CostModel, fold bool) string {
	if fold {
		return app + "/" + model.String() + "/fold"
	}
	return app + "/" + model.String() + "/nofold"
}

// TestPlanDigests pins every FOO/FLACK plan of the campaign's apps byte for
// byte. The min-cost flow has many optimal solutions, and which one the
// solver returns depends on its augmenting-path order; a change to that
// order (heap tie-breaking, search order) flips keep decisions and fails
// here, inside the offline package, rather than only in the campaign's CSV
// fingerprints.
func TestPlanDigests(t *testing.T) {
	path := filepath.Join("testdata", "plan_digests.json")
	got := collectPlanDigests(t)
	if *updatePlanDigests {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d digests)", path, len(got.Digests))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read plan digests (regenerate with -update-plan-digests): %v", err)
	}
	var want planDigestFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse plan digests: %v", err)
	}
	if want.Blocks != got.Blocks {
		t.Fatalf("digests generated at %d blocks, test runs %d", want.Blocks, got.Blocks)
	}
	if len(want.Digests) != len(got.Digests) {
		t.Fatalf("golden has %d digests, current run produced %d", len(want.Digests), len(got.Digests))
	}
	for name, w := range want.Digests {
		if g := got.Digests[name]; g != w {
			t.Errorf("plan %s changed: sha256 %s, golden %s", name, g, w)
		}
	}
}
