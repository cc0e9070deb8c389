// Command hccmf-recommend serves top-N recommendations from a factor
// model trained and saved by hccmf-train, excluding items the user already
// rated in the given ratings file.
//
// Usage:
//
//	hccmf-train -preset netflix -scale 0.01 -save model.bin
//	hccmf-datagen -preset netflix -scale 0.01 -out ratings.txt
//	hccmf-recommend -model model.bin -ratings ratings.txt -user 42 -n 10
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"hccmf/internal/dataset"
	"hccmf/internal/mf"
	"hccmf/internal/recommend"
	"hccmf/internal/sparse"
	"hccmf/internal/version"
)

func main() {
	modelPath := flag.String("model", "", "trained model file (from hccmf-train -save)")
	ratingsPath := flag.String("ratings", "", "ratings file for seen-item exclusion (text or binary)")
	user := flag.Int("user", 0, "user to recommend for")
	n := flag.Int("n", 10, "number of recommendations")
	evalHitRate := flag.Bool("eval", false, "also report hit-rate@N on a 10% held-out split of the ratings")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("hccmf-recommend", version.String())
		return
	}

	if *modelPath == "" {
		fatal(fmt.Errorf("-model is required"))
	}
	model, err := loadModel(*modelPath)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("model: %d users × %d items, k=%d\n", model.M, model.N, model.K)

	rec, err := recommend.NewService(model, model.M, model.N, recommend.ServiceConfig{MaxN: *n})
	if err != nil {
		fatal(err)
	}
	defer rec.Close()

	var ratings *sparse.COO
	if *ratingsPath != "" {
		// The magic decides the format: binary decode errors (truncation,
		// corruption) propagate instead of being masked by a text re-parse.
		ratings, err = dataset.ReadRatingsFile(*ratingsPath, runtime.GOMAXPROCS(0))
		if err != nil {
			fatal(err)
		}
		if *evalHitRate {
			train, test, err := ratings.SplitTrainTest(sparse.NewRand(1), 0.1)
			if err != nil {
				fatal(err)
			}
			if err := rec.MarkSeen(train); err != nil {
				fatal(err)
			}
			hr, err := rec.HitRateAtN(test, *n)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("hit-rate@%d on held-out 10%%: %.3f\n", *n, hr)
		} else if err := rec.MarkSeen(ratings); err != nil {
			fatal(err)
		}
	}

	top, err := rec.TopNInto(int32(*user), *n, nil)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\ntop-%d for user %d:\n", *n, *user)
	for rank, it := range top {
		fmt.Printf("%3d. item %-8d score %.3f\n", rank+1, it.ID, it.Score)
	}
}

func loadModel(path string) (*mf.Factors, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return mf.ReadFactors(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hccmf-recommend:", err)
	os.Exit(1)
}
