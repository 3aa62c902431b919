package netlist

// Precedence exposes the parser's binary operator table to the external
// tests, so they can range over every operator Parse accepts.
var Precedence = precedence
