package mf

// GridSide exposes gridSide to the external oracle test.
var GridSide = gridSide
