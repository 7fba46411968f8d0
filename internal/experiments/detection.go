package experiments

import (
	"context"
	"fmt"

	"csaw/internal/blockpage"
	"csaw/internal/censor"
	"csaw/internal/detect"
	"csaw/internal/metrics"
	"csaw/internal/worldgen"
)

// Table5 measures the average blocking-detection time per mechanism over 50
// runs each (paper Table 5: TCP/IP 21 s, DNS SERVFAIL 10.6 s, DNS REFUSED
// 0.025 s, HTTP block page 1.8 s, TCP/IP+DNS 32.7 s).
var Table5 = experiment("table5", scenario{scale: 500, sites: standardSites}, func(r *rig) *Result {
	runs, yt := r.runs(50), worldgen.YouTubeHost
	scenarios := []struct {
		name   string
		paperS float64
		policy *censor.Policy
	}{
		{"TCP/IP", 21, &censor.Policy{IP: map[string]censor.IPAction{yt: censor.IPDrop}}},
		{"DNS (Server Failure)", 10.6, &censor.Policy{DNS: map[string]censor.DNSAction{"youtube.com": censor.DNSServFail}}},
		{"DNS (Server Refused)", 0.025, &censor.Policy{DNS: map[string]censor.DNSAction{"youtube.com": censor.DNSRefused}}},
		{"HTTP (Block Page)", 1.8, &censor.Policy{HTTP: []censor.HTTPRule{{Host: "youtube.com", Action: censor.HTTPBlockPage}}}},
		{"TCP/IP + DNS", 32.7, youtubeMultiStage},
	}

	res := &Result{Title: fmt.Sprintf("Average blocking-detection time (%d runs each)", runs)}
	tbl := metrics.Table{Headers: []string{"Blocking type", "avg detect (s)", "paper (s)"}}
	for i, sc := range scenarios {
		isp := r.addISP(ispRow{17000 + i, fmt.Sprintf("ISP-T5-%d", i), sc.policy})
		det := r.detector(r.host(fmt.Sprintf("t5-client-%d", i), isp))
		dist := metrics.NewDistribution()
		for run := 0; run < runs; run++ {
			out := det.Measure(context.Background(), yt+"/", detect.HTTP)
			r.hold(out.Blocked(), "%s run %d: not detected (stages=%s err=%v)", sc.name, run, out.StageSummary(), out.Err)
			dist.AddDuration(out.Detected)
		}
		tbl.AddRow(sc.name, fmt.Sprintf("%.3f", dist.Mean()), fmt.Sprintf("%.3f", sc.paperS))
		res.Metric("detect_s."+sc.name, dist.Mean())
		res.Metric("paper_s."+sc.name, sc.paperS)
	}
	res.Text = tbl.String()
	res.Note("shape: REFUSED ≪ block page ≪ SERVFAIL ≈ DNS-drop < TCP/IP < multi-stage")
	return res
})

// Classifier evaluates the two-phase block-page detector on the 47-ISP
// corpus: ~80%% phase-1 recall with zero false positives, everything else
// caught by phase 2 (§4.3.1).
func Classifier(o Options) (*Result, error) {
	c := blockpage.NewClassifier()
	corpus := blockpage.Corpus()
	normal := blockpage.NormalPages()

	caught := 0
	for _, p := range corpus {
		if c.Phase1(p.HTML).Suspected {
			caught++
		}
	}
	falsePos := 0
	for _, p := range normal {
		if c.Phase1(p).Suspected {
			falsePos++
		}
	}
	phase2 := 0
	const realPageSize = 360 << 10
	for _, p := range corpus {
		if !c.Phase1(p.HTML).Suspected && blockpage.Phase2(len(p.HTML), realPageSize) {
			phase2++
		}
	}

	res := &Result{ID: "classifier", Title: "Two-phase block-page classifier on the 47-ISP corpus"}
	tbl := metrics.Table{Headers: []string{"quantity", "value", "paper"}}
	rate := float64(caught) / float64(len(corpus))
	tbl.AddRow("corpus size", fmt.Sprintf("%d", len(corpus)), "47 ISPs")
	tbl.AddRow("phase-1 recall", fmt.Sprintf("%.0f%%", rate*100), "~80%")
	tbl.AddRow("phase-1 false positives", fmt.Sprintf("%d/%d", falsePos, len(normal)), "0")
	tbl.AddRow("phase-2 catches of phase-1 misses", fmt.Sprintf("%d/%d", phase2, len(corpus)-caught), "all")
	res.Text = tbl.String()
	res.Metric("phase1_recall", rate)
	res.Metric("phase1_false_positives", float64(falsePos))
	res.Metric("phase2_residual_misses", float64(len(corpus)-caught-phase2))
	return res, nil
}
