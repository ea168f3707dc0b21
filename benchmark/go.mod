module rmalocks/benchmark

go 1.21

require rmalocks v0.0.0

replace rmalocks => ../
