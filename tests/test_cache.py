"""The record cache: the canonical fast path against the line parser,
rows kept as text until first read, and verbatim write-back."""

import sys

import pytest

from darcais import cache as cache_mod
from darcais import polynomials
from darcais.cache import CacheError, read_cache, write_cache
from darcais.cli import EXIT_OK, main
from oracles import read_cache_exact


@pytest.fixture
def fresh_memo(monkeypatch):
    """Empty P and Q memos, as in a fresh process; returns a function that
    empties them again."""

    def reset():
        monkeypatch.setattr(polynomials, "_SCALED", [(1,)])
        monkeypatch.setattr(polynomials, "_Q_SCALED", [(1,)])

    reset()
    return reset


def cold_bytes(tmp_path, max_n):
    """The bytes write_cache writes for 1..max_n from ints alone."""
    path = tmp_path / f"cold{max_n}.cache"
    write_cache(path, max_n)
    return path.read_bytes()


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def outcome(reader, path):
    try:
        return dict(reader(path))
    except CacheError as exc:
        return f"CacheError: {exc}"


def unread_rows():
    """The loaded rows still held as text."""
    table = polynomials._SCALED
    return {n for n in range(1, len(table)) if not isinstance(table[n], tuple)}


def rows_read_extending(cached, max_n):
    """The rows 1..cached that the recurrence reads to compute the rows
    cached + 1..max_n."""
    return {
        m - j for m in range(cached + 1, max_n + 1) for j, _ in polynomials._pentagonal_terms(m)
    } & set(range(1, cached + 1))


class TestEquivalence:
    REPLACEMENTS = [bytes([b]) for b in b"019 :\n-+_\ra"] + [b"\x80"]

    def test_single_byte_mutations_match_the_line_parser(self, tmp_path):
        data = cold_bytes(tmp_path, 10)
        mutants = set()
        for i in range(len(data)):
            mutants.add(data[:i] + data[i + 1:])
            mutants.add(data[:i + 1] + data[i:])
            mutants.update(data[:i] + b + data[i + 1:] for b in self.REPLACEMENTS)
        mutants.discard(data)
        path = tmp_path / "mutant.cache"
        fast = 0
        for mutant in sorted(mutants):
            path.write_bytes(mutant)
            assert outcome(read_cache, path) == outcome(read_cache_exact, path), mutant
            fast += cache_mod._canonical_texts(mutant) is not None
        # digits replaced by digits keep a file canonical: both paths ran
        assert 500 < fast < len(mutants) - 500

    def test_canonical_file_takes_the_fast_path(self, tmp_path):
        path = tmp_path / "records.cache"
        write_cache(path, 30)
        records = read_cache(path)
        assert isinstance(records, cache_mod._TextRecords)
        assert records == read_cache_exact(path)
        assert records[30] == polynomials.darcais_record(30).numer_coeffs

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.replace(b"\n3: 8 ", b"\n3: +8 "),
            lambda d: d.replace(b"\n10: ", b"\n1_0: "),
            lambda d: d.replace(b"\n7: ", b"\n007: "),
            lambda d: d.replace(b"\n", b"\r\n"),
            lambda d: d + b"\n",
            lambda d: d[:-1],
        ],
        ids=["plus", "underscore", "leading-zeros", "crlf", "trailing-blank", "no-final-newline"],
    )
    def test_valid_non_canonical_files_take_the_fallback(self, tmp_path, edit):
        data = edit(cold_bytes(tmp_path, 10))
        assert cache_mod._canonical_texts(data) is None
        path = tmp_path / "edited.cache"
        path.write_bytes(data)
        records = read_cache(path)
        assert type(records) is dict
        assert records == read_cache_exact(path)
        assert sorted(records) == list(range(1, 11))

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit"
    )
    @pytest.mark.parametrize("where", [0, 150, 398])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_token_past_the_int_digit_limit(self, tmp_path, where, extra):
        # str() cannot write a longer token than int() reads, so a file
        # with one is not canonical, and the line parser refuses it
        limit = 640  # the smallest limit Python allows
        lines = [cache_mod.CACHE_HEADER]
        for n in range(1, 401):  # the last tails are longer than the limit
            tokens = ["7"] * (n - 1) + ["1"]
            if n == 400:
                tokens[where] = "9" * (limit + extra)
            lines.append(f"{n}: {' '.join(tokens)}")
        data = ("\n".join(lines) + "\n").encode("ascii")
        path = tmp_path / "long.cache"
        path.write_bytes(data)
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            assert (cache_mod._canonical_texts(data) is None) == bool(extra)
            result = outcome(read_cache, path)
            assert result == outcome(read_cache_exact, path)
        finally:
            sys.set_int_max_str_digits(old)
        assert ("unparsable record" in result) == bool(extra)


class TestWriteBack:
    def test_extending_a_cache_writes_the_cold_file(self, capsys, tmp_path, fresh_memo):
        cold = cold_bytes(tmp_path, 44)
        fresh_memo()
        path = tmp_path / "records.cache"
        write_cache(path, 40)
        fresh_memo()
        code, _ = run(capsys, "poly", "--n", "44", "--normalized", "--cache", str(path))
        assert code == EXIT_OK
        assert unread_rows()  # some rows went back as the bytes they were read as
        assert path.read_bytes() == cold

    def test_non_canonical_cache_is_rewritten_canonically(self, capsys, tmp_path, fresh_memo):
        cold = cold_bytes(tmp_path, 12)
        fresh_memo()
        path = tmp_path / "records.cache"
        path.write_bytes(cold_bytes(tmp_path, 10).replace(b"\n", b"\r\n"))
        fresh_memo()
        code, _ = run(capsys, "poly", "--n", "12", "--normalized", "--cache", str(path))
        assert code == EXIT_OK
        assert unread_rows() == set()  # loaded as ints
        assert path.read_bytes() == cold

    def test_writes_what_this_process_loaded(self, tmp_path, fresh_memo):
        cold = cold_bytes(tmp_path, 44)
        fresh_memo()
        path = tmp_path / "records.cache"
        path.write_bytes(cold[: cold.index(b"\n41: ") + 1])
        fresh_memo()
        assert cache_mod.load_into_memo(path) == 40
        path.write_bytes(b"replaced by another writer\n")
        write_cache(path, 44)
        assert path.read_bytes() == cold

    def test_converted_rows_are_written_as_read(self, capsys, tmp_path, fresh_memo,
                                                monkeypatch):
        cold = cold_bytes(tmp_path, 219)
        fresh_memo()
        path = tmp_path / "records.cache"
        path.write_bytes(cold[: cold.index(b"\n216: ") + 1])
        formatted = []
        format_record = cache_mod._format_record

        def spy(n):
            formatted.append(n)
            return format_record(n)

        monkeypatch.setattr(cache_mod, "_format_record", spy)
        code, _ = run(capsys, "poly", "--n", "219", "--normalized", "--cache", str(path))
        assert code == EXIT_OK
        converted = set(range(1, 216)) - unread_rows()
        assert converted == rows_read_extending(215, 219)
        assert len(converted) == 82
        assert formatted == [216, 217, 218, 219]
        assert path.read_bytes() == cold


class TestRowsOnFirstUse:
    @pytest.fixture
    def cache60(self, tmp_path, fresh_memo):
        path = tmp_path / "records.cache"
        write_cache(path, 60)
        fresh_memo()
        return path

    @pytest.mark.parametrize(
        "command",
        [["shape", "--max-n", "60"], ["verify", "--conjecture", "1", "--max-n", "8"]],
    )
    def test_readers_of_q_convert_no_record(self, capsys, cache60, command):
        code, _ = run(capsys, *command, "--cache", str(cache60))
        assert code == EXIT_OK
        assert len(polynomials._SCALED) == 61  # every record was loaded
        assert unread_rows() == set(range(1, 61))

    def test_poly_converts_only_the_rows_the_recurrence_reads(self, capsys, cache60):
        code, out = run(capsys, "poly", "--n", "64", "--normalized", "--cache", str(cache60))
        assert code == EXIT_OK
        converted = set(range(1, 61)) - unread_rows()
        assert converted == rows_read_extending(60, 64)
        assert len(polynomials._SCALED) == 65
        assert out == " ".join(map(str, polynomials.darcais_record(64).numer_coeffs)) + "\n"

    def test_overlap_with_computed_rows_is_compared(self, tmp_path, fresh_memo):
        path = tmp_path / "records.cache"
        write_cache(path, 12)
        lines = path.read_bytes().split(b"\n")
        first, rest = lines[5].split(b" ", 2)[1:]
        lines[5] = b"5: %d %s" % (int(first) + 1, rest)
        path.write_bytes(b"\n".join(lines))
        assert cache_mod._canonical_texts(path.read_bytes()) is not None
        with pytest.raises(CacheError, match="n=5 disagrees"):
            cache_mod.load_into_memo(path)

    def test_a_text_row_converts_once(self, cache60):
        cache_mod.load_into_memo(cache60)
        text = polynomials.loaded_text(30)
        first = polynomials.scaled_coeffs(30)
        assert 30 not in unread_rows()
        assert polynomials.scaled_coeffs(30) is first
        assert polynomials.loaded_text(30) is text  # kept for the cache writer
        assert first == (0, *read_cache_exact(cache60)[30])
