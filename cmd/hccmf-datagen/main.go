// Command hccmf-datagen materialises synthetic rating datasets with the
// shapes of the paper's evaluation sets (Table 3) and writes them in the
// text or binary interchange format, or converts between the two.
//
// Usage:
//
//	hccmf-datagen -preset netflix -scale 0.01 -out netflix.bin
//	hccmf-datagen -preset r2 -scale 0.001 -format text -out r2.txt
//	hccmf-datagen -convert in.txt -out out.bin
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"hccmf/internal/dataset"
	"hccmf/internal/sparse"
	"hccmf/internal/version"
)

func main() {
	preset := flag.String("preset", "netflix", "dataset preset (netflix, r1, r1star, r2, ml-20m)")
	scale := flag.Float64("scale", 0.01, "shape scale factor (0<s≤1)")
	format := flag.String("format", "", "output format: text or binary (default: by extension, .txt=text)")
	out := flag.String("out", "", "output path (required)")
	seed := flag.Uint64("seed", 1, "generation seed")
	convert := flag.String("convert", "", "convert this ratings file instead of generating")
	split := flag.Bool("split", false, "write separate .train/.test files (90/10)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("hccmf-datagen", version.String())
		return
	}

	if *out == "" {
		fatal(fmt.Errorf("-out is required"))
	}

	var m *sparse.COO
	if *convert != "" {
		// The magic, not the extension, decides the input's format.
		loaded, err := dataset.ReadRatingsFile(*convert, runtime.GOMAXPROCS(0))
		if err != nil {
			fatal(err)
		}
		m = loaded
	} else {
		spec, err := dataset.Lookup(*preset)
		if err != nil {
			fatal(err)
		}
		if *scale < 1 {
			spec, err = spec.Scaled(*scale)
			if err != nil {
				fatal(err)
			}
		}
		ds, err := dataset.Generate(spec, *seed)
		if err != nil {
			fatal(err)
		}
		if *split {
			if err := writeAny(trainPath(*out), ds.Train, *format); err != nil {
				fatal(err)
			}
			if err := writeAny(testPath(*out), ds.Test, *format); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s (%d ratings) and %s (%d ratings)\n",
				trainPath(*out), ds.Train.NNZ(), testPath(*out), ds.Test.NNZ())
			return
		}
		// Single file: merge splits back.
		merged := ds.Train.Clone()
		merged.Entries = append(merged.Entries, ds.Test.Entries...)
		m = merged
	}

	if err := writeAny(*out, m, *format); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %dx%d matrix, %d ratings\n", *out, m.Rows, m.Cols, m.NNZ())
}

func isText(path, format string) bool {
	if format != "" {
		return format == "text"
	}
	ext := strings.ToLower(filepath.Ext(path))
	return ext == ".txt" || ext == ".tsv" || ext == ".dat"
}

func writeAny(path string, m *sparse.COO, format string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if isText(path, format) {
		return dataset.WriteText(f, m)
	}
	return dataset.WriteBinary(f, m)
}

func trainPath(base string) string {
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + ".train" + ext
}

func testPath(base string) string {
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + ".test" + ext
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hccmf-datagen:", err)
	os.Exit(1)
}
