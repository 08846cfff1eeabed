"""scipy is loaded only by augment, for its elastic warp, and
multiprocessing only by work that splits across processes; importing one
submodule loads only that submodule and what it imports.

Each check runs in a new interpreter, since the test process has usually
imported scipy already.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import dorsalhash
from dorsalhash.corpus import AugmentationSpec, augment, write_pgm

SRC = str(Path(dorsalhash.__file__).resolve().parents[1])

# loaded() prints the scipy modules imported so far as one "scipy:" line.
SCIPY_PROBE = """
import json, sys
def loaded():
    print("scipy:", json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def run_fresh(code: str) -> dict[str, list]:
    """Run code in a new interpreter on this checkout; returns its "key: value"
    lines as {key: [JSON values, in order]}."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE + code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    lines: dict[str, list] = {}
    for line in proc.stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key in ("scipy", "digest", "multiprocessing", "package"):
            lines.setdefault(key, []).append(json.loads(value))
    return lines


def test_package_cli_and_vault_commands_never_load_scipy(tiny_net, tmp_path):
    cfg = tmp_path / "settings.cfg"
    cfg.write_text(f"input_height={tiny_net.config.input_height}\n"
                   f"input_width={tiny_net.config.input_width}\n", encoding="utf-8")
    model = tmp_path / "model.dfn"
    tiny_net.save(model)
    rng = np.random.default_rng(5)
    images = []
    for i in range(3):
        images.append(str(tmp_path / f"img{i}.pgm"))
        write_pgm(images[-1], rng.uniform(0, 1, (20, 40)))
    common = ["--model", str(model), "--store", str(tmp_path / "store"), "--config", str(cfg)]
    seen = run_fresh(f"""
loaded()
import dorsalhash
loaded()
import dorsalhash.cli as cli
loaded()
common = {common!r}
images = {images!r}
assert cli.main(["enroll", *common, "--user", "u0", "--images", *images[:2]]) == 0
loaded()
assert cli.main(["verify", *common, "--user", "u0", "--image", images[2], "--threshold", "0.5"]) == 0
loaded()
assert cli.main(["revoke", *common, "--user", "u0", "--images", *images[:2]]) == 0
loaded()
print("multiprocessing:", json.dumps("multiprocessing" in sys.modules))
""")
    assert seen["scipy"] == [[]] * 6
    assert seen["multiprocessing"] == [False]


def test_elastic_augment_loads_scipy_on_first_use(tmp_path):
    img = np.linspace(0.0, 1.0, 24 * 40).reshape(24, 40)
    synth_out = str(tmp_path / "corpus")
    seen = run_fresh(f"""
import hashlib
import numpy as np
from dorsalhash.corpus import AugmentationSpec, SyntheticSpec, augment, generate_synthetic
img = np.linspace(0.0, 1.0, 24 * 40).reshape(24, 40)
loaded()
generate_synthetic(SyntheticSpec(num_subjects=2, samples_per_subject=2, height=8, width=16), {synth_out!r})
loaded()
out = augment(img, AugmentationSpec(count=3, seed=4))
print("digest:", json.dumps(hashlib.sha256(np.stack(out).tobytes()).hexdigest()))
loaded()
""")
    expect = np.stack(augment(img, AugmentationSpec(count=3, seed=4)))
    assert seen["digest"] == [hashlib.sha256(expect.tobytes()).hexdigest()]
    assert seen["scipy"][:2] == [[], []]
    assert "scipy.ndimage" in seen["scipy"][2]


def test_importing_one_submodule_loads_no_other():
    # The package re-exports nothing, so rand (which imports no sibling)
    # comes alone.
    seen = run_fresh("""
import dorsalhash.rand
print("package:", json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "dorsalhash")))
""")
    assert seen["package"] == [["dorsalhash", "dorsalhash.rand"]]
