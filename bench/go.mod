module fedfteds/bench

go 1.24

require fedfteds v0.0.0

replace fedfteds => ../
