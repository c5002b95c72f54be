module lulesh/benchmark

go 1.22

require lulesh v0.0.0

replace lulesh => ../
