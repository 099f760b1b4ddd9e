"""Unit tests for the streaming XML parser."""

import io
import xml.parsers.expat as pyexpat

import pytest

from repro.errors import XMLSyntaxError
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    StartDocument,
    StartElement,
    Text,
)
from repro.xmlstream.parser import (
    StreamingXMLParser,
    parse_events,
    resolve_entities,
)


def events_of(xml, **kwargs):
    return list(parse_events(xml, **kwargs))


class TestBasicParsing:
    def test_single_empty_element(self):
        events = events_of("<a/>")
        assert events == [StartDocument(), StartElement("a"), EndElement("a"), EndDocument()]

    def test_element_with_text(self):
        events = events_of("<a>hello</a>")
        assert events == [
            StartDocument(),
            StartElement("a"),
            Text("hello"),
            EndElement("a"),
            EndDocument(),
        ]

    def test_nested_elements(self):
        events = events_of("<a><b>x</b><c/></a>")
        names = [e.name for e in events if isinstance(e, StartElement)]
        assert names == ["a", "b", "c"]

    def test_attributes_double_and_single_quotes(self):
        events = events_of("""<a x="1" y='two'/>""")
        start = events[1]
        assert start.attributes == {"x": "1", "y": "two"}

    def test_attribute_entity_resolution(self):
        events = events_of('<a title="a &amp; b"/>')
        assert events[1].attributes["title"] == "a & b"

    def test_whitespace_between_elements_dropped_by_default(self):
        events = events_of("<a>\n  <b>x</b>\n</a>")
        assert not any(isinstance(e, Text) and not e.text.strip() for e in events)

    def test_whitespace_preserved_when_requested(self):
        events = events_of("<a>\n  <b>x</b>\n</a>", keep_whitespace=True)
        assert any(isinstance(e, Text) and e.text.strip() == "" for e in events)

    def test_self_closing_element_emits_both_tags(self):
        events = events_of("<a><b/></a>")
        assert EndElement("b") in events

    def test_mixed_content_order(self):
        events = events_of("<p>one<b>two</b>three</p>")
        kinds = [type(e).__name__ for e in events[1:-1]]
        assert kinds == ["StartElement", "Text", "StartElement", "Text", "EndElement", "Text", "EndElement"]


class TestEntities:
    def test_predefined_entities_in_text(self):
        events = events_of("<a>1 &lt; 2 &amp;&amp; 3 &gt; 2</a>")
        assert events[2] == Text("1 < 2 && 3 > 2")

    def test_numeric_character_references(self):
        assert resolve_entities("&#65;&#x42;") == "AB"

    def test_unknown_entity_raises(self):
        with pytest.raises(XMLSyntaxError):
            events_of("<a>&unknown;</a>")

    def test_unterminated_entity_raises(self):
        with pytest.raises(XMLSyntaxError):
            events_of("<a>&amp</a>")

    def test_quote_and_apos(self):
        assert resolve_entities("&quot;&apos;") == "\"'"


class TestStructuralConstructs:
    def test_comments_are_skipped(self):
        events = events_of("<a><!-- a comment --><b/></a>")
        assert not any(isinstance(e, Text) for e in events)

    def test_processing_instruction_and_xml_decl_skipped(self):
        events = events_of('<?xml version="1.0"?><?pi data?><a/>')
        assert events[1] == StartElement("a")

    def test_cdata_contributes_text(self):
        events = events_of("<a><![CDATA[<not parsed> & raw]]></a>")
        assert events[2] == Text("<not parsed> & raw")

    def test_doctype_internal_subset_is_captured(self):
        parser = StreamingXMLParser('<!DOCTYPE bib [<!ELEMENT bib (book)*>]><bib/>')
        list(parser.events())
        assert parser.doctype_name == "bib"
        assert "<!ELEMENT bib" in parser.doctype_internal_subset

    def test_doctype_without_subset(self):
        parser = StreamingXMLParser('<!DOCTYPE bib SYSTEM "bib.dtd"><bib/>')
        list(parser.events())
        assert parser.doctype_name == "bib"
        assert parser.doctype_internal_subset is None


class TestErrors:
    @pytest.mark.parametrize(
        "xml",
        [
            "<a><b></a>",          # mismatched nesting
            "<a>",                 # unclosed element
            "</a>",                # stray closing tag
            "<a></a><b></b>",      # two root elements
            "text only",           # no root element
            "<a x=1/>",            # unquoted attribute
            "<a x/>",              # attribute without value
            "<>bad</>",            # empty tag name
            "<a><!-- unterminated </a>",
        ],
    )
    def test_malformed_documents_raise(self, xml):
        with pytest.raises(XMLSyntaxError):
            events_of(xml)

    @pytest.mark.parametrize(
        "xml",
        [
            "<a x='1' x='2'/>",
            '<a x="1" y="2" x="3"></a>',
            "<r><a y='1' x='2'  x = '2'/></r>",
            "<a x='1' y='2'/>",  # distinct names: accepted
            "<a x='1'/>",
        ],
    )
    def test_duplicate_attributes_agree_with_expat(self, xml):
        expat = pyexpat.ParserCreate()
        try:
            expat.Parse(xml, True)
            expat_accepts = True
        except pyexpat.ExpatError:
            expat_accepts = False
        for split in range(1, len(xml)):
            parser = StreamingXMLParser.incremental()
            try:
                parser.feed(xml[:split])
                parser.feed(xml[split:])
                parser.close()
                accepted = True
            except XMLSyntaxError:
                accepted = False
            assert accepted == expat_accepts, (xml, split)
        assert (xml in ("<a x='1' y='2'/>", "<a x='1'/>")) == expat_accepts

    def test_text_outside_root_rejected(self):
        with pytest.raises(XMLSyntaxError):
            events_of("<a/>trailing")

    def test_error_carries_offset(self):
        try:
            events_of("<a>&nope;</a>")
        except XMLSyntaxError as error:
            assert error.offset >= 0
        else:  # pragma: no cover
            pytest.fail("expected XMLSyntaxError")


def expat_outcome(xml):
    """``(accepted, events)`` from stdlib expat, events in this module's
    comparison form: ``("start", name, attrs)``, ``("text", joined
    character data)``, ``("end", name)``."""
    events = []
    text = []

    def flush():
        if text:
            events.append(("text", "".join(text)))
            text.clear()

    def start(name, attrs):
        flush()
        events.append(("start", name, dict(attrs)))

    def end(name):
        flush()
        events.append(("end", name))

    expat = pyexpat.ParserCreate()
    expat.StartElementHandler = start
    expat.EndElementHandler = end
    expat.CharacterDataHandler = text.append
    try:
        expat.Parse(xml, True)
    except pyexpat.ExpatError:
        return False, None
    return True, events


def two_chunk_outcome(xml, split):
    """``(accepted, events)`` from the incremental parser fed ``xml`` in
    two chunks, in the form of :func:`expat_outcome`."""
    parser = StreamingXMLParser.incremental(keep_whitespace=True)
    try:
        parsed = parser.feed(xml[:split]) + parser.feed(xml[split:]) + parser.close()
    except XMLSyntaxError:
        return False, None
    events = []
    for event in parsed:
        if isinstance(event, StartElement):
            events.append(("start", event.name, dict(event.attrs)))
        elif isinstance(event, EndElement):
            events.append(("end", event.name))
        elif isinstance(event, Text):
            if events and events[-1][0] == "text":
                events[-1] = ("text", events[-1][1] + event.text)
            else:
                events.append(("text", event.text))
    return True, events


class TestExpatConformance:
    """Character data, line ends and attribute values, checked against
    expat at every two-chunk split (so every construct also spans a chunk
    boundary somewhere)."""

    @pytest.mark.parametrize(
        "xml",
        [
            "<a>x]]>y</a>",
            "<a>]]></a>",
            "<a><b/>]]><b/></a>",
            "<a>x]]&gt;y</a>",
            "<a>x]]y]>z]</a>",
            "<a>]] ></a>",
            "<a><![CDATA[x]]>y]]</a>",
            "<a><![CDATA[]]]]><![CDATA[>]]></a>",
            "<a>x\r\ny</a>",
            "<a>x\ry\r</a>",
            "<a>x\r\r\ny\n\rz</a>",
            "<a>\r\n<b>\r</b>\r\n</a>",
            "<a>x&#13;y&#13;&#10;z</a>",
            "<a><![CDATA[x\r\ny\rz]]></a>",
            "<a b=\"1\t2\n3\"/>",
            "<a b=\"1\r\n2\r3\" c='\t'/>",
            "<a b=\"1&#9;2&#10;3&#13;4\"/>",
            "<a\r\nb='x'\tc=\"y\"\n/>",
        ],
    )
    def test_agrees_with_expat(self, xml):
        expected = expat_outcome(xml)
        for split in range(1, len(xml)):
            assert two_chunk_outcome(xml, split) == expected, (xml, split)

    def test_examples(self):
        assert not expat_outcome("<a>x]]>y</a>")[0]
        assert events_of("<a>x\r\ny\rz</a>")[2] == Text("x\ny\nz")
        assert events_of("<a>x&#13;</a>")[2] == Text("x\r")
        assert events_of("<a b=\"1\t2\n3\"/>")[1] == StartElement("a", (("b", "1 2 3"),))


class TestFileLikeInput:
    def test_parsing_from_file_object(self):
        source = io.StringIO("<a><b>hi</b></a>")
        events = list(parse_events(source))
        assert events[1] == StartElement("a")
        assert Text("hi") in events

    def test_chunked_reading_matches_string_parsing(self):
        xml = "<root>" + "".join(f"<item n=\"{i}\">value {i}</item>" for i in range(200)) + "</root>"
        from_string = list(parse_events(xml))
        parser = StreamingXMLParser(io.StringIO(xml), chunk_size=37)
        from_file = list(parser.events())
        assert from_string == from_file

    def test_large_document_streams(self, small_bibliography):
        count = sum(1 for e in parse_events(small_bibliography) if isinstance(e, StartElement))
        assert count > 20
