module highway/benchmark

go 1.24

require highway v0.0.0

replace highway => ../
