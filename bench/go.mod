// The benchmark is a module of its own so that the program's build file
// stays untouched; the replace directive points at the program it measures.
module bdi/bench

go 1.24

require bdi v0.0.0

replace bdi => ../
