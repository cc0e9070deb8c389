// MovieLens: train HCC-MF on a real MovieLens archive if you have one, or
// on a synthetic ML-20m-shaped instance otherwise — and compare the plain
// factor model against the bias-augmented variant.
//
//	go run ./examples/movielens [path/to/ratings.csv | path/to/u.data]
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"hccmf/internal/core"
	"hccmf/internal/dataset"
	"hccmf/internal/mf"
	"hccmf/internal/sparse"
)

func main() {
	var ratings *sparse.COO
	source := "synthetic ml-20m (0.2% scale)"
	if len(os.Args) > 1 {
		path := os.Args[1]
		m, err := loadMovieLens(path)
		if err != nil {
			log.Fatalf("loading %s: %v", path, err)
		}
		ratings = m
		source = path
	} else {
		ds, err := dataset.Generate(dataset.MovieLens20M.MustScaled(0.002), 7)
		if err != nil {
			log.Fatal(err)
		}
		merged := ds.Train.Clone()
		merged.Entries = append(merged.Entries, ds.Test.Entries...)
		ratings = merged
	}
	fmt.Printf("MovieLens study — %s: %d users × %d items, %d ratings\n\n",
		source, ratings.Rows, ratings.Cols, ratings.NNZ())

	train, test, err := ratings.SplitTrainTest(sparse.NewRand(11), 0.1)
	if err != nil {
		log.Fatal(err)
	}
	spec := dataset.Spec{
		Name: "ml-20m", // reuse the calibrated device rates for this shape
		M:    ratings.Rows, N: ratings.Cols, NNZ: int64(ratings.NNZ()),
		Rank:   16,
		Params: dataset.MovieLens20M.Params,
	}

	// 1) HCC-MF on the simulated platform (plain factors).
	res, err := core.Run(core.RunConfig{
		Spec:     spec,
		Platform: core.PaperPlatformOverall(),
		Epochs:   20,
		RealK:    16,
		Data:     &dataset.Dataset{Spec: spec, Train: train, Test: test},
		Seed:     11,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HCC-MF (plain):   final test RMSE %.4f  (plan: %v)\n",
		res.FinalRMSE, res.Plan.Strategy)

	// 2) The bias-augmented model, trained serially for comparison.
	h := mf.HyperParams{Gamma: spec.Params.Gamma,
		Lambda1: spec.Params.Lambda1, Lambda2: spec.Params.Lambda2}
	biased := NewBiasedFactorsInit(train.Rows, train.Cols, 16,
		train.MeanRating(), sparse.NewRand(12))
	for e := 0; e < 20; e++ {
		biased.Epoch(train.Entries, h)
	}
	fmt.Printf("Biased MF:        final test RMSE %.4f  (μ + b_u + b_i + p·q)\n",
		biased.RMSE(test.Entries))

	fmt.Println("\nML-20m is the paper's limitation case: near-square, so feature")
	fmt.Printf("traffic rivals compute (nnz/(m+n) = %.0f) and utilization is only %.0f%%.\n",
		spec.DimRatio(), res.Utilization*100)
}

func loadMovieLens(path string) (*sparse.COO, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		m, _, err := dataset.ReadMovieLensCSV(f)
		return m, err
	}
	m, _, err := dataset.ReadMovieLensUData(f)
	return m, err
}
