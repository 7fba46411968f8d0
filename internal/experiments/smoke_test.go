package experiments

import "testing"

// The per-experiment test names predate TestExperiments (which runs first:
// test files run in name order) and stay as aliases of its subtests.
func TestSmokeTable1(t *testing.T)      { alias(t, "table1") }
func TestSmokeTable2(t *testing.T)      { alias(t, "table2") }
func TestSmokeFigure1a(t *testing.T)    { alias(t, "figure1a") }
func TestSmokeFigure1b(t *testing.T)    { alias(t, "figure1b") }
func TestSmokeFigure1c(t *testing.T)    { alias(t, "figure1c") }
func TestSmokeFigure2(t *testing.T)     { alias(t, "figure2") }
func TestSmokeTable5(t *testing.T)      { alias(t, "table5") }
func TestSmokeFigure5a(t *testing.T)    { alias(t, "figure5a") }
func TestSmokeFigure5b(t *testing.T)    { alias(t, "figure5b") }
func TestSmokeFigure5c(t *testing.T)    { alias(t, "figure5c") }
func TestSmokeFigure6a(t *testing.T)    { alias(t, "figure6a") }
func TestSmokeFigure6b(t *testing.T)    { alias(t, "figure6b") }
func TestSmokeTable6(t *testing.T)      { alias(t, "table6") }
func TestSmokeFigure7a(t *testing.T)    { alias(t, "figure7a") }
func TestSmokeFigure7b(t *testing.T)    { alias(t, "figure7b") }
func TestSmokeFigure7c(t *testing.T)    { alias(t, "figure7c") }
func TestSmokeTable7(t *testing.T)      { alias(t, "table7") }
func TestSmokeWild(t *testing.T)        { alias(t, "wild") }
func TestSmokeClassifier(t *testing.T)  { alias(t, "classifier") }
func TestSmokeAbl1(t *testing.T)        { alias(t, "ablation-selective") }
func TestSmokeAbl2(t *testing.T)        { alias(t, "ablation-voting") }
func TestSmokeAbl3(t *testing.T)        { alias(t, "ablation-multihoming") }
func TestSmokeAbl4(t *testing.T)        { alias(t, "ablation-explore") }
func TestSmokeAbl5(t *testing.T)        { alias(t, "ablation-fingerprint") }
func TestSmokeSyncFault(t *testing.T)   { alias(t, "sync-fault") }
func TestSmokeCensorChurn(t *testing.T) { alias(t, "censor-churn") }
func TestSmokeReplicaLoss(t *testing.T) { alias(t, "replica-loss") }
func TestSmokeDeltaSync(t *testing.T)   { alias(t, "delta-sync") }
func TestSmokeFleet(t *testing.T)       { alias(t, "fleet") }
func TestSmokePrimaryLoss(t *testing.T) { alias(t, "primary-loss") }

// TestPrimaryLossDeterministic is the promotion determinism gate: the whole
// kill/elect/resume/rejoin sequence must render byte-identically for the
// same seed — elections, tie-breaks, and resync all run in virtual time.
func TestPrimaryLossDeterministic(t *testing.T) {
	r := Find("primary-loss")
	first, err := r.Run(Options{Runs: 2, Seed: 7})
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	second, err := r.Run(Options{Runs: 2, Seed: 7})
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if a, b := first.Render(), second.Render(); a != b {
		t.Errorf("same seed, different summaries\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

// alias reports TestExperiments' verdict on one experiment, running it
// only when that pass was filtered out (-run TestSmokeX).
func alias(t *testing.T, id string) {
	t.Helper()
	v, done := verdicts[id]
	if !done {
		v = pin(t, id)
	}
	if v != "" {
		t.Error(v)
	}
}
