// Command simstat renders the telemetry time series from a dbsense
// -o FILE run as aligned summary tables (n/min/mean/max/p99 plus a
// sparkline per series), refusing mixed-schema-version inputs:
//
//	simstat -series FILE
//
// The machine model's own checks (single-thread speed, SMT interference,
// turbo droop, LLC miss ratios under CAT masks, throttled SSD bandwidth)
// are the hw, cache and iodev package tests.
package main

import (
	"flag"
	"os"
)

var seriesIn = flag.String("series", "", "render telemetry series from an emitter JSONL file")

func main() {
	flag.Parse()
	if *seriesIn == "" {
		flag.Usage()
		os.Exit(2)
	}
	runSeries(*seriesIn)
}
