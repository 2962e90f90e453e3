package field

// SectorVsScalar exposes the kernel-versus-scalar check to the
// external tests in this directory, which build real roofs through
// internal/scenario (a package that imports this one).
var SectorVsScalar = sectorVsScalar
