// The benchmark is a module of its own, built from this directory. Its path
// is under logdiver/, so it may import logdiver/internal/...; the repository
// around it is the logdiver module it measures.
module logdiver/bench

go 1.22

require logdiver v0.0.0

replace logdiver => ../
