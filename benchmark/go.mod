module lsvd/benchmark

go 1.22

require lsvd v0.0.0

replace lsvd => ../
