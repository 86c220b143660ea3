"""Properties of the input boundaries, checked on generated inputs.

Each property holds for every input the strategy draws: an input is either
accepted or rejected with the boundary's own error, never with an exception
from inside the parser.  derandomize=True makes each run draw the same
examples, so the suite stays reproducible.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from devqe.bench import CONFIG_KEYS, UsageError, parse_config

# tmp_path is shared by the examples of one test; each example rewrites its file
PROPERTY_SETTINGS = settings(
    derandomize=True, database=None, max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# text inside one config line: anything UTF-8 encodes except a line break
LINE_TEXT = st.text(st.characters(exclude_characters="\r\n", exclude_categories=("Cs",)),
                    max_size=12)


@PROPERTY_SETTINGS
@given(data=st.binary(max_size=300))
def test_parse_config_on_any_bytes_returns_a_dict_or_a_usage_error(tmp_path, data):
    path = tmp_path / "run.cfg"
    path.write_bytes(data)
    try:
        config = parse_config(str(path))
    except UsageError:
        return
    assert set(config) <= CONFIG_KEYS
    assert all(isinstance(value, str) for value in config.values())


@PROPERTY_SETTINGS
@given(entries=st.lists(st.tuples(st.sampled_from(sorted(CONFIG_KEYS)), LINE_TEXT),
                        max_size=8))
def test_parse_config_keeps_each_key_once(tmp_path, entries):
    # a config of known keys is read back value for value, unless a key repeats:
    # then the error names the repeated line and the line that set the key first
    path = tmp_path / "run.cfg"
    path.write_bytes("".join(f"{key}={value}\n" for key, value in entries).encode("utf-8"))
    first_line = {}
    for line_no, (key, _) in enumerate(entries, start=1):
        if key in first_line:
            message = f"{path}:{line_no}: key {key!r} repeats line {first_line[key]}"
            try:
                parse_config(str(path))
            except UsageError as exc:
                assert str(exc) == message
                return
            raise AssertionError(f"no error for a repeated key: {message}")
        first_line[key] = line_no
    assert parse_config(str(path)) == {key: value.strip() for key, value in entries}
