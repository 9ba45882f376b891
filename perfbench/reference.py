"""Published reference values the benchmark checks its outputs against.

Rows are keyed by n2 and columns by n1, as the paper prints them.  The
values are kept here, not imported from the test suite, so the benchmark
stays the same program whatever the tests become.
"""

GRID = (2, 3, 4, 5, 7, 10)

# Table 1: minimax-regret pre-test level alpha*
TABLE1_ALPHA = {
    2: {2: 0.38, 3: 0.30, 4: 0.27, 5: 0.24, 7: 0.22, 10: 0.20},
    3: {2: 0.42, 3: 0.34, 4: 0.29, 5: 0.27, 7: 0.24, 10: 0.21},
    4: {2: 0.44, 3: 0.36, 4: 0.31, 5: 0.28, 7: 0.25, 10: 0.22},
    5: {2: 0.46, 3: 0.38, 4: 0.33, 5: 0.30, 7: 0.26, 10: 0.23},
    7: {2: 0.49, 3: 0.40, 4: 0.35, 5: 0.32, 7: 0.28, 10: 0.25},
    10: {2: 0.51, 3: 0.42, 4: 0.37, 5: 0.33, 7: 0.29, 10: 0.26},
}

# Table 2: minimax-regret shrinkage weight K* at the fixed level 0.16
TABLE2_K = {
    2: {2: 0.17, 3: 0.23, 4: 0.29, 5: 0.32, 7: 0.38, 10: 0.42},
    3: {2: 0.14, 3: 0.19, 4: 0.24, 5: 0.27, 7: 0.32, 10: 0.36},
    4: {2: 0.12, 3: 0.17, 4: 0.21, 5: 0.24, 7: 0.29, 10: 0.33},
    5: {2: 0.11, 3: 0.16, 4: 0.20, 5: 0.22, 7: 0.27, 10: 0.31},
    7: {2: 0.10, 3: 0.14, 4: 0.18, 5: 0.20, 7: 0.24, 10: 0.28},
    10: {2: 0.10, 3: 0.13, 4: 0.17, 5: 0.19, 7: 0.23, 10: 0.26},
}

# Table 3: K* at the tuned level alpha* of Table 1
TABLE3_K = {
    2: {2: 0.21, 3: 0.29, 4: 0.34, 5: 0.37, 7: 0.42, 10: 0.45},
    3: {2: 0.15, 3: 0.23, 4: 0.28, 5: 0.31, 7: 0.35, 10: 0.39},
    4: {2: 0.12, 3: 0.19, 4: 0.24, 5: 0.27, 7: 0.32, 10: 0.35},
    5: {2: 0.11, 3: 0.17, 4: 0.22, 5: 0.25, 7: 0.29, 10: 0.33},
    7: {2: 0.10, 3: 0.15, 4: 0.19, 5: 0.22, 7: 0.26, 10: 0.30},
    10: {2: 0.09, 3: 0.14, 4: 0.17, 5: 0.20, 7: 0.24, 10: 0.28},
}

# published values are rounded to two decimals
TABLE_TOL = 0.015
