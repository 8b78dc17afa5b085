module pelta/bench

go 1.22

require pelta v0.0.0

replace pelta => ../
