//go:build !race

package experiments

// churnScale is the censor-churn scenario's default clock scale; see
// race_on.go for why a race build lowers it.
const churnScale = 40
