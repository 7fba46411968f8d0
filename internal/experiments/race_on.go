//go:build race

package experiments

// churnScale is the censor-churn scenario's default clock scale under the
// race detector. The scenario classifies measured virtual durations against
// ratio cutoffs: the detector's scheduling overhead is real time, and the
// virtual clock multiplies real gaps by the scale, so a scale that is
// comfortably inside the classification margins in a plain build can push a
// round across a cutoff in a race build.
const churnScale = 10
