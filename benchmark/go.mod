module godosn/benchmark

go 1.22

require godosn v0.0.0

replace godosn => ../
