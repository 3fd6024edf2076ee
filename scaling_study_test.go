package epiphany_test

// The 1024-core scaling study acceptance harness. The registered
// "scaling-1024" plan sweeps the full workload suite - including the
// off-chip matmul, re-admitted once the schemeDouble rotation got its
// send-credit handshake - from the paper's e16 out to an Epiphany-V-class
// grid=4x4/chip=8x8 mesh, with the 28nm power model attached. The
// e16 -> e64 -> cluster-2x2 prefix of the derived table is pinned bit
// for bit to testdata/scaling_study_golden.csv (regenerate with
// `go run ./cmd/epiphany-sweep -plan scaling-1024 -topos
// e16,e64,cluster-2x2 -format csv -o testdata/scaling_study_golden.csv`
// and explain the drift in the commit message); the full 60-cell CSV,
// 512- and 1024-core boards included, is pinned by its SHA-256 and
// checked structurally and for determinism, and CI uploads it as an
// artifact.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"epiphany"
)

// studyPlan fetches the registered scaling study, failing on a
// registry miss.
func studyPlan(t *testing.T) epiphany.SweepPlan {
	t.Helper()
	named, ok := epiphany.SweepPlanByName("scaling-1024")
	if !ok {
		t.Fatal("scaling-1024 is not in the plan registry")
	}
	return named.Plan
}

// TestScalingStudyGolden pins the study's paper-device prefix (the
// three presets, 36 cells) to the golden CSV, bit for bit.
func TestScalingStudyGolden(t *testing.T) {
	plan := studyPlan(t)
	plan.Topos = plan.Topos[:3] // e16, e64, cluster-2x2 - the preset prefix
	res, err := epiphany.Sweep(context.Background(), plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/scaling_study_golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.CSV(); got != string(want) {
		t.Errorf("scaling-study CSV drifted from testdata/scaling_study_golden.csv;\nregenerate with `go run ./cmd/epiphany-sweep -plan scaling-1024 -topos e16,e64,cluster-2x2 -format csv -o testdata/scaling_study_golden.csv` and explain why in the commit message\n got:\n%s", got)
	}
}

// scalingStudyCSVSHA256 is the digest of the full 60-cell scaling-1024
// CSV as rendered when every cell ran on a freshly built board. It was
// measured, not regenerated: a drift means a simulated result moved
// (or a recycled board was not pristine) and must be explained, not
// re-pinned.
const scalingStudyCSVSHA256 = "102f40cdca79963d70b30ab14def8e785b0a4700afc5190a48e78b5a97b7050c"

// TestScalingStudy1024 runs the full study - including the 512-core
// grid=2x4 and 1024-core grid=4x4 boards - pins its CSV to a SHA-256
// digest, and checks its structure: every cell succeeds, the axis
// reaches 1024 cores, the e16 baseline anchors speedup/efficiency at
// exactly 1, every cell carries energy, and the multi-chip boards
// report chip-boundary crossings for the chip-spanning workloads. The
// whole grid re-renders bit-identically across worker counts, like
// every sweep.
func TestScalingStudy1024(t *testing.T) {
	plan := studyPlan(t)
	res, err := epiphany.Sweep(context.Background(), plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(res.CSV()))); got != scalingStudyCSVSHA256 {
		t.Errorf("scaling-1024 CSV digest = %s, want %s", got, scalingStudyCSVSHA256)
	}
	topoCores := map[string]bool{}
	offchipCells := 0
	for _, c := range res.Cells {
		if c.Err != "" {
			t.Errorf("cell %s/%s failed: %s", c.Workload, c.Topology, c.Err)
		}
		if c.Workload == "matmul-offchip" {
			offchipCells++
		}
		if c.Topology == "e16" && (c.Speedup != 1 || c.Efficiency != 1) {
			t.Errorf("baseline cell %s: speedup=%v efficiency=%v, want exactly 1", c.Workload, c.Speedup, c.Efficiency)
		}
		if c.Err == "" && c.Metrics.EnergyJ <= 0 {
			t.Errorf("cell %s/%s has no energy accounting", c.Workload, c.Topology)
		}
		topoCores[c.Topology] = true
	}
	for _, key := range []string{"e16", "cluster-2x2", "e64", "grid=2x4/chip=8x8", "grid=4x4/chip=8x8"} {
		if !topoCores[key] {
			t.Errorf("study axis lacks %s; got %v", key, res.Plan.Topos)
		}
	}
	// The off-chip matmul is back on the grid - one cell per topology -
	// now that the schemeDouble rotation race is fixed.
	if want := len(res.Plan.Topos); offchipCells != want {
		t.Errorf("matmul-offchip appears in %d cells, want %d (one per topology)", offchipCells, want)
	}
	// The chip-spanning streaming stencils must pay c2c boundaries on
	// the 1024-core board.
	crossed := false
	for _, c := range res.Cells {
		if c.Topology == "grid=4x4/chip=8x8" && strings.HasPrefix(c.Workload, "stream-stencil") {
			if c.Metrics.ELinkCrossings > 0 {
				crossed = true
			}
		}
	}
	if !crossed {
		t.Error("no stream-stencil crossings on the 1024-core board")
	}

	// Rendered bytes are worker-count invariant.
	res8, err := epiphany.Sweep(context.Background(), plan, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.CSV() != res8.CSV() {
		t.Error("study CSV differs between -workers defaults and 8")
	}
}

// TestSweepPlanRegistry pins the registry surface: the study is
// listed, lookups resolve it, and a near-miss name gets a "did you
// mean" suggestion.
func TestSweepPlanRegistry(t *testing.T) {
	plans := epiphany.SweepPlans()
	found := false
	for _, p := range plans {
		if p.Name == "scaling-1024" {
			found = true
			if p.Description == "" {
				t.Error("scaling-1024 has no description")
			}
		}
	}
	if !found {
		t.Fatalf("SweepPlans() lacks scaling-1024: %v", plans)
	}
	if _, err := epiphany.ResolveSweepPlan("scaling-1024"); err != nil {
		t.Errorf("ResolveSweepPlan(scaling-1024): %v", err)
	}
	_, err := epiphany.ResolveSweepPlan("scaling-124")
	if err == nil || !strings.Contains(err.Error(), `did you mean "scaling-1024"`) {
		t.Errorf("near-miss plan name error lacks suggestion: %v", err)
	}
}
