"""Byte-exact `legarray` help and usage-error output, with exit codes.

Recorded with COLUMNS=80 under Python 3.11: argparse wraps its text to the
terminal width, and its wording differs between Python versions.
"""

# argv -> (exit code, stdout, stderr)
CLI_USAGE = {
    ("--help",): (
        0,
        """\
usage: legarray [-h]
                {gen-legendre,gen-family,corr,verify,welch,flatten,render,embed,extract}
                ...

Command-line interface: generation, verification, correlation, rendering, and
watermark embed/extract. All outputs are deterministic for identical inputs.
Exit codes: 0 success, 1 validation error, 2 verification failure.

positional arguments:
  {gen-legendre,gen-family,corr,verify,welch,flatten,render,embed,extract}
    gen-legendre        generate a Legendre sequence/array as NDA1
    gen-family          generate family members as NDA1 files
    corr                full periodic correlation table of two arrays
    verify              check correlation bounds for a whole family
    welch               exact bound-to-peak ratio versus the benchmark
    flatten             fold an even-rank NDA1 array to rank 2
    render              render a (flattened) array to PGM
    embed               embed a watermark payload into a PGM image
    extract             recover a watermark payload from a PGM image

options:
  -h, --help            show this help message and exit
""",
        "",
    ),
    ("gen-legendre", "--help"): (
        0,
        """\
usage: legarray gen-legendre [-h] --p P [--n N] [--a {-1,0,1}] [--poly POLY]
                             [--out OUT]

options:
  -h, --help    show this help message and exit
  --p P         odd prime modulus
  --n N         array dimension (default 1)
  --a {-1,0,1}  origin value (default 0)
  --poly POLY   primitive polynomial, comma-separated coefficients constant
                term first (e.g. 2,4,1 = x^2+4x+2); defaults to the smallest
                one
  --out OUT     output path (default stdout)
""",
        "",
    ),
    ("gen-family", "--help"): (
        0,
        """\
usage: legarray gen-family [-h] --p P [--n N] [--poly POLY] [--m M] --out OUT

options:
  -h, --help   show this help message and exit
  --p P        odd prime modulus
  --n N        array dimension (default 1)
  --poly POLY  primitive polynomial, comma-separated coefficients constant
               term first (e.g. 2,4,1 = x^2+4x+2); defaults to the smallest
               one
  --m M        single member index (default: all)
  --out OUT    output directory
""",
        "",
    ),
    ("corr", "--help"): (
        0,
        """\
usage: legarray corr [-h] [--fast] --out OUT a b

positional arguments:
  a           first NDA1 file
  b           second NDA1 file

options:
  -h, --help  show this help message and exit
  --fast      use the FFT path
  --out OUT   output NDA1 path ('-' for stdout)
""",
        "",
    ),
    ("verify", "--help"): (
        0,
        """\
usage: legarray verify [-h] --p P [--n N] [--poly POLY] [--fast] [--full]
                       [--out OUT]

options:
  -h, --help   show this help message and exit
  --p P        odd prime modulus
  --n N        array dimension (default 1)
  --poly POLY  primitive polynomial, comma-separated coefficients constant
               term first (e.g. 2,4,1 = x^2+4x+2); defaults to the smallest
               one
  --fast       selects nothing; verify always runs the exact family kernel
  --full       list every shift attaining max |theta| in each report (default:
               the first 8 and their count)
  --out OUT    write the JSON report to this file instead of stdout
""",
        "",
    ),
    ("welch", "--help"): (
        0,
        """\
usage: legarray welch [-h] --p P --n N

options:
  -h, --help  show this help message and exit
  --p P
  --n N
""",
        "",
    ),
    ("flatten", "--help"): (
        0,
        """\
usage: legarray flatten [-h] --out OUT input

positional arguments:
  input       input NDA1 file

options:
  -h, --help  show this help message and exit
  --out OUT   output NDA1 path ('-' for stdout)
""",
        "",
    ),
    ("render", "--help"): (
        0,
        """\
usage: legarray render [-h] --out OUT [--scale SCALE] input

positional arguments:
  input          input NDA1 file

options:
  -h, --help     show this help message and exit
  --out OUT      output PGM path
  --scale SCALE  integer upscaling factor
""",
        "",
    ),
    ("embed", "--help"): (
        0,
        """\
usage: legarray embed [-h] --image IMAGE --p P [--n N] [--poly POLY] --m M
                      --shifts SHIFTS [--strength STRENGTH] --out OUT

options:
  -h, --help           show this help message and exit
  --image IMAGE        carrier PGM (P5 or P2)
  --p P                odd prime modulus
  --n N                array dimension (default 1)
  --poly POLY          primitive polynomial, comma-separated coefficients
                       constant term first (e.g. 2,4,1 = x^2+4x+2); defaults
                       to the smallest one
  --m M                family member index
  --shifts SHIFTS      comma-separated cyclic shifts
  --strength STRENGTH  additive amplitude (default 3)
  --out OUT            marked PGM path
""",
        "",
    ),
    ("extract", "--help"): (
        0,
        """\
usage: legarray extract [-h] --image IMAGE --p P [--n N] [--poly POLY]
                        [--snr-threshold SNR_THRESHOLD]

options:
  -h, --help            show this help message and exit
  --image IMAGE         marked PGM (P5 or P2)
  --p P                 odd prime modulus
  --n N                 array dimension (default 1)
  --poly POLY           primitive polynomial, comma-separated coefficients
                        constant term first (e.g. 2,4,1 = x^2+4x+2); defaults
                        to the smallest one
  --snr-threshold SNR_THRESHOLD
                        confidence threshold on peak/off-peak RMS (default
                        4.0)
""",
        "",
    ),
    ("verify", "--n", "2"): (
        1,
        "",
        """\
usage: legarray verify [-h] --p P [--n N] [--poly POLY] [--fast] [--full]
                       [--out OUT]
legarray verify: error: the following arguments are required: --p
""",
    ),
    ("frobnicate",): (
        1,
        "",
        """\
usage: legarray [-h]
                {gen-legendre,gen-family,corr,verify,welch,flatten,render,embed,extract}
                ...
legarray: error: argument command: invalid choice: 'frobnicate' (choose from 'gen-legendre', 'gen-family', 'corr', 'verify', 'welch', 'flatten', 'render', 'embed', 'extract')
""",
    ),
    (): (
        1,
        "",
        """\
usage: legarray [-h]
                {gen-legendre,gen-family,corr,verify,welch,flatten,render,embed,extract}
                ...
legarray: error: the following arguments are required: command
""",
    ),
}
