package horizon

// BuildRef exposes the oracle walk to the external tests, which may
// import packages (the scenarios) that import this one.
var BuildRef = buildRef
