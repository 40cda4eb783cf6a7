// Command datagen emits synthetic crowdsourced RF corpora as JSON. The
// profiles mirror the two datasets of the GRAFICS paper (package
// internal/simulate documents the substitution rationale):
//
//	datagen -profile microsoft -buildings 204 -records 1000 -out ms.json
//	datagen -profile hongkong  -records 1000 -out hk.json
//	datagen -profile campus3f  -records 300  -out campus.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/simulate"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	profile := fs.String("profile", "microsoft", "corpus profile: microsoft | hongkong | campus3f")
	buildings := fs.Int("buildings", 204, "number of buildings (microsoft profile only)")
	records := fs.Int("records", 1000, "crowdsourced records per floor")
	seed := fs.Int64("seed", 1, "generation seed")
	out := fs.String("out", "", "output JSON path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var params simulate.Params
	switch *profile {
	case "microsoft":
		params = simulate.MicrosoftLike(*buildings, *records, *seed)
	case "hongkong":
		params = simulate.HongKongLike(*records, *seed)
	case "campus3f":
		params = simulate.Campus3F(*records, *seed)
	default:
		return fmt.Errorf("unknown profile %q", *profile)
	}
	corpus, err := simulate.Generate(params)
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	if *out == "" {
		return corpus.WriteJSON(os.Stdout)
	}
	if err := corpus.SaveFile(*out); err != nil {
		return err
	}
	total := 0
	for i := range corpus.Buildings {
		total += len(corpus.Buildings[i].Records)
	}
	fmt.Printf("wrote %s: %d buildings, %d records\n", *out, len(corpus.Buildings), total)
	return nil
}
