package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"hccmf/internal/dataset"
	"hccmf/internal/mf"
	"hccmf/internal/sparse"
)

const (
	cliUsers = 6
	cliItems = 150
	cliK     = 4
	cliUser  = 2
)

// cliFixture builds the binary and writes a model and a ratings file in
// which user cliUser rated 40 items. Every item anybody rated scores above
// every item nobody rated, so an item that slipped past seen-item
// exclusion would lead the listing.
func cliFixture(t *testing.T) (bin, modelPath, ratingsPath string, ratings *sparse.COO) {
	t.Helper()
	dir := t.TempDir()
	bin = filepath.Join(dir, "hccmf-recommend")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	rng := sparse.NewRand(7)
	ratings = sparse.NewCOO(cliUsers, cliItems, 0)
	for i := 0; i < 40; i++ {
		ratings.Add(cliUser, int32(3*i+1), 4)
	}
	for c := 0; c < 60; c++ {
		ratings.Add(int32(rng.Intn(cliUsers)), int32(rng.Intn(cliItems)), 3)
	}
	model := mf.NewFactorsInit(cliUsers, cliItems, cliK, 3.5, rng)
	for _, e := range ratings.Entries {
		q := model.QRow(e.I)
		for f := range q {
			q[f] = 10 + float32(e.I)/cliItems
		}
	}

	modelPath = filepath.Join(dir, "model.bin")
	ratingsPath = filepath.Join(dir, "ratings.txt")
	mfile, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := mf.WriteFactors(mfile, model); err != nil {
		t.Fatal(err)
	}
	if err := mfile.Close(); err != nil {
		t.Fatal(err)
	}
	rfile, err := os.Create(ratingsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteText(rfile, ratings); err != nil {
		t.Fatal(err)
	}
	if err := rfile.Close(); err != nil {
		t.Fatal(err)
	}
	return bin, modelPath, ratingsPath, ratings
}

var listedItem = regexp.MustCompile(`(?m)^\s*\d+\. item (\d+)\s`)

// runCLI runs the binary and returns its stdout and the listed item IDs.
func runCLI(t *testing.T, bin string, args ...string) (string, []int32) {
	t.Helper()
	out, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("%v: %v\n%s", args, err, out)
	}
	var ids []int32
	for _, m := range listedItem.FindAllStringSubmatch(string(out), -1) {
		id, err := strconv.Atoi(m[1])
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, int32(id))
	}
	return string(out), ids
}

// rated is the set of items user u rated in m.
func rated(m *sparse.COO, u int32) map[int32]bool {
	set := map[int32]bool{}
	for _, e := range m.Entries {
		if e.U == u {
			set[e.I] = true
		}
	}
	return set
}

// TestListsOnlyUnratedItemsAboveDefaultCap asks for more items than the
// scoring engine's default cap of 100 and more than the user has unrated:
// the listing must hold every unrated item and no rated one.
func TestListsOnlyUnratedItemsAboveDefaultCap(t *testing.T) {
	bin, modelPath, ratingsPath, ratings := cliFixture(t)
	_, ids := runCLI(t, bin, "-model", modelPath, "-ratings", ratingsPath,
		"-user", strconv.Itoa(cliUser), "-n", "140")
	seen := rated(ratings, cliUser)
	if want := cliItems - len(seen); len(ids) != want {
		t.Fatalf("listed %d items, want all %d unrated ones", len(ids), want)
	}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("listed item %d, which user %d rated", id, cliUser)
		}
	}
}

// TestEvalListsNoTrainingItem runs -eval, which marks only the 90%
// training split (seed 1, as the CLI draws it) and reports hit-rate@N on
// the rest: the hit rate is printed and no listed item is one of the
// user's training ratings.
func TestEvalListsNoTrainingItem(t *testing.T) {
	bin, modelPath, ratingsPath, ratings := cliFixture(t)
	out, ids := runCLI(t, bin, "-model", modelPath, "-ratings", ratingsPath,
		"-user", strconv.Itoa(cliUser), "-n", "10", "-eval")
	if !strings.Contains(out, "hit-rate@10 on held-out 10%: ") {
		t.Fatalf("no hit-rate line:\n%s", out)
	}
	if len(ids) != 10 {
		t.Fatalf("listed %d items, want 10:\n%s", len(ids), out)
	}
	train, _, err := ratings.SplitTrainTest(sparse.NewRand(1), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	seen := rated(train, cliUser)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("listed item %d, which user %d rated in the training split", id, cliUser)
		}
	}
}
